//! The recursive-descent parser.

use ingot_common::{DataType, Error, Result, Value};

use crate::ast::*;
use crate::lexer::{Lexer, Token};

/// Parse exactly one statement (a trailing `;` is allowed).
pub fn parse_statement(sql: &str) -> Result<Statement> {
    let mut p = Parser::new(sql)?;
    let stmt = p.parse_stmt()?;
    p.eat(&Token::Semi);
    p.expect_eof()?;
    Ok(stmt)
}

/// Parse a `;`-separated script.
pub fn parse_statements(sql: &str) -> Result<Vec<Statement>> {
    let mut p = Parser::new(sql)?;
    let mut out = Vec::new();
    loop {
        while p.eat(&Token::Semi) {}
        if p.peek() == &Token::Eof {
            return Ok(out);
        }
        out.push(p.parse_stmt()?);
        if !p.eat(&Token::Semi) {
            p.expect_eof()?;
            return Ok(out);
        }
    }
}

/// Token-stream parser. Use [`parse_statement`] / [`parse_statements`] unless
/// you need incremental parsing.
pub struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    /// Lex `sql` and position at the first token.
    pub fn new(sql: &str) -> Result<Self> {
        Ok(Parser {
            tokens: Lexer::new(sql).tokenize()?,
            pos: 0,
        })
    }

    fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)]
    }

    fn peek2(&self) -> &Token {
        &self.tokens[(self.pos + 1).min(self.tokens.len() - 1)]
    }

    /// Consume the current token, moving it out: the parser never looks
    /// back, and an identifier's text goes into the AST as lexed.
    fn bump(&mut self) -> Token {
        let last = self.tokens.len() - 1;
        let t = std::mem::replace(&mut self.tokens[self.pos.min(last)], Token::Eof);
        self.pos += 1;
        t
    }

    fn eat(&mut self, t: &Token) -> bool {
        if self.peek() == t {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat_kw(&mut self, kw: &'static str) -> bool {
        if self.peek() == &Token::Keyword(kw) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect(&mut self, t: &Token) -> Result<()> {
        if self.eat(t) {
            Ok(())
        } else {
            Err(Error::parse(format!(
                "expected {t:?}, found {:?}",
                self.peek()
            )))
        }
    }

    fn expect_kw(&mut self, kw: &'static str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(Error::parse(format!(
                "expected {kw}, found {:?}",
                self.peek()
            )))
        }
    }

    fn expect_eof(&self) -> Result<()> {
        if self.peek() == &Token::Eof {
            Ok(())
        } else {
            Err(Error::parse(format!(
                "unexpected trailing input: {:?}",
                self.peek()
            )))
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.bump() {
            Token::Ident(s) => Ok(s),
            // Non-reserved use of keywords as identifiers is common in
            // generated schemas (a column named `key`, `set`, …); allow any
            // keyword where an identifier is required except the statement
            // starters.
            Token::Keyword(k)
                if !matches!(
                    k,
                    "SELECT" | "FROM" | "WHERE" | "GROUP" | "ORDER" | "AND" | "OR"
                ) =>
            {
                Ok(k.to_ascii_lowercase())
            }
            other => Err(Error::parse(format!(
                "expected identifier, found {other:?}"
            ))),
        }
    }

    /// Parse one statement.
    pub fn parse_stmt(&mut self) -> Result<Statement> {
        let unexpected = |t: &Token| Error::parse(format!("unexpected token {t:?}"));
        let Token::Keyword(kw) = *self.peek() else {
            return Err(unexpected(self.peek()));
        };
        match kw {
            "SELECT" => Ok(Statement::Select(self.parse_select()?)),
            "INSERT" => self.parse_insert(),
            "UPDATE" => self.parse_update(),
            "DELETE" => self.parse_delete(),
            "CREATE" => self.parse_create(),
            "DROP" => self.parse_drop(),
            "MODIFY" => self.parse_modify(),
            "EXPLAIN" => {
                self.bump();
                let analyze = self.eat_kw("ANALYZE");
                Ok(Statement::Explain {
                    analyze,
                    inner: Box::new(self.parse_stmt()?),
                })
            }
            "SET" => self.parse_set(),
            _ => Err(unexpected(self.peek())),
        }
    }

    // ---- SELECT ---------------------------------------------------------------

    fn parse_select(&mut self) -> Result<SelectStmt> {
        self.expect_kw("SELECT")?;
        let distinct = self.eat_kw("DISTINCT");
        // Room for a typical select list at once; `vec![first]` would start
        // at capacity one and regrow on the second item.
        let mut items = Vec::with_capacity(4);
        items.push(self.parse_select_item()?);
        while self.eat(&Token::Comma) {
            items.push(self.parse_select_item()?);
        }
        let mut from = Vec::new();
        if self.eat_kw("FROM") {
            from.push(self.parse_table_ref()?);
            while self.eat(&Token::Comma) {
                from.push(self.parse_table_ref()?);
            }
        }
        let filter = if self.eat_kw("WHERE") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.eat_kw("GROUP") {
            self.expect_kw("BY")?;
            group_by.push(self.parse_expr()?);
            while self.eat(&Token::Comma) {
                group_by.push(self.parse_expr()?);
            }
        }
        let having = if self.eat_kw("HAVING") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        let mut order_by = Vec::new();
        if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            loop {
                let expr = self.parse_expr()?;
                let desc = if self.eat_kw("DESC") {
                    true
                } else {
                    self.eat_kw("ASC");
                    false
                };
                order_by.push(OrderItem { expr, desc });
                if !self.eat(&Token::Comma) {
                    break;
                }
            }
        }
        let limit = if self.eat_kw("LIMIT") {
            Some(self.parse_u64()?)
        } else {
            None
        };
        let offset = if self.eat_kw("OFFSET") {
            Some(self.parse_u64()?)
        } else {
            None
        };
        Ok(SelectStmt {
            distinct,
            items,
            from,
            filter,
            group_by,
            having,
            order_by,
            limit,
            offset,
        })
    }

    fn parse_u64(&mut self) -> Result<u64> {
        match self.bump() {
            Token::Int(i) if i >= 0 => Ok(i as u64),
            other => Err(Error::parse(format!(
                "expected non-negative integer, found {other:?}"
            ))),
        }
    }

    fn parse_select_item(&mut self) -> Result<SelectItem> {
        if self.peek() == &Token::Star {
            self.bump();
            return Ok(SelectItem::Wildcard);
        }
        // `t.*`
        if matches!(self.peek(), Token::Ident(_))
            && self.peek2() == &Token::Dot
            && self.tokens.get(self.pos + 2) == Some(&Token::Star)
        {
            let t = self.ident()?;
            self.pos += 2;
            return Ok(SelectItem::QualifiedWildcard(t));
        }
        let expr = self.parse_expr()?;
        let alias = if self.eat_kw("AS") {
            Some(self.ident()?)
        } else if let Token::Ident(_) = self.peek() {
            Some(self.ident()?)
        } else {
            None
        };
        Ok(SelectItem::Expr { expr, alias })
    }

    fn parse_table_ref(&mut self) -> Result<TableRef> {
        let name = self.ident()?;
        let alias = self.parse_alias()?;
        let mut joins = Vec::new();
        loop {
            let is_join = if self.eat_kw("JOIN") {
                true
            } else if self.peek() == &Token::Keyword("INNER") {
                self.bump();
                self.expect_kw("JOIN")?;
                true
            } else {
                false
            };
            if !is_join {
                break;
            }
            let jname = self.ident()?;
            let jalias = self.parse_alias()?;
            self.expect_kw("ON")?;
            let on = self.parse_expr()?;
            joins.push(Join {
                name: jname,
                alias: jalias,
                on,
            });
        }
        Ok(TableRef { name, alias, joins })
    }

    fn parse_alias(&mut self) -> Result<Option<String>> {
        if self.eat_kw("AS") {
            return Ok(Some(self.ident()?));
        }
        if let Token::Ident(_) = self.peek() {
            return Ok(Some(self.ident()?));
        }
        Ok(None)
    }

    // ---- DML ------------------------------------------------------------------

    fn parse_insert(&mut self) -> Result<Statement> {
        self.expect_kw("INSERT")?;
        self.expect_kw("INTO")?;
        let table = self.ident()?;
        let columns = if self.peek() == &Token::LParen {
            self.bump();
            let mut cols = vec![self.ident()?];
            while self.eat(&Token::Comma) {
                cols.push(self.ident()?);
            }
            self.expect(&Token::RParen)?;
            Some(cols)
        } else {
            None
        };
        self.expect_kw("VALUES")?;
        let mut rows = Vec::new();
        loop {
            self.expect(&Token::LParen)?;
            let mut vals = vec![self.parse_expr()?];
            while self.eat(&Token::Comma) {
                vals.push(self.parse_expr()?);
            }
            self.expect(&Token::RParen)?;
            rows.push(vals);
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        Ok(Statement::Insert {
            table,
            columns,
            rows,
        })
    }

    fn parse_update(&mut self) -> Result<Statement> {
        self.expect_kw("UPDATE")?;
        let table = self.ident()?;
        self.expect_kw("SET")?;
        let mut sets = Vec::new();
        loop {
            let col = self.ident()?;
            self.expect(&Token::Eq)?;
            sets.push((col, self.parse_expr()?));
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        let filter = if self.eat_kw("WHERE") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        Ok(Statement::Update {
            table,
            sets,
            filter,
        })
    }

    fn parse_delete(&mut self) -> Result<Statement> {
        self.expect_kw("DELETE")?;
        self.expect_kw("FROM")?;
        let table = self.ident()?;
        let filter = if self.eat_kw("WHERE") {
            Some(self.parse_expr()?)
        } else {
            None
        };
        Ok(Statement::Delete { table, filter })
    }

    // ---- DDL ------------------------------------------------------------------

    fn parse_create(&mut self) -> Result<Statement> {
        self.expect_kw("CREATE")?;
        if self.eat_kw("TABLE") {
            return self.parse_create_table();
        }
        if self.eat_kw("UNIQUE") {
            self.expect_kw("INDEX")?;
            return self.parse_create_index(true);
        }
        if self.eat_kw("INDEX") {
            return self.parse_create_index(false);
        }
        if self.eat_kw("STATISTICS") {
            // `CREATE STATISTICS ON t [(cols)]`; `ON`/`FOR` optional.
            let _ = self.eat_kw("ON");
            let table = self.ident()?;
            let mut columns = Vec::new();
            if self.eat(&Token::LParen) {
                columns.push(self.ident()?);
                while self.eat(&Token::Comma) {
                    columns.push(self.ident()?);
                }
                self.expect(&Token::RParen)?;
            }
            return Ok(Statement::CreateStatistics { table, columns });
        }
        Err(Error::parse(format!(
            "expected TABLE, INDEX or STATISTICS after CREATE, found {:?}",
            self.peek()
        )))
    }

    fn parse_create_table(&mut self) -> Result<Statement> {
        let name = self.ident()?;
        self.expect(&Token::LParen)?;
        let mut columns = Vec::new();
        let mut primary_key: Vec<String> = Vec::new();
        loop {
            if self.eat_kw("PRIMARY") {
                self.expect_kw("KEY")?;
                self.expect(&Token::LParen)?;
                loop {
                    primary_key.push(self.ident()?);
                    if !self.eat(&Token::Comma) {
                        break;
                    }
                }
                self.expect(&Token::RParen)?;
            } else {
                let col_name = self.ident()?;
                let ty = self.parse_type()?;
                let mut not_null = false;
                let mut pk = false;
                loop {
                    if self.eat_kw("NOT") {
                        self.expect_kw("NULL")?;
                        not_null = true;
                    } else if self.eat_kw("NULL") {
                        not_null = false;
                    } else if self.eat_kw("PRIMARY") {
                        self.expect_kw("KEY")?;
                        pk = true;
                        not_null = true;
                    } else {
                        break;
                    }
                }
                if pk {
                    primary_key.push(col_name.clone());
                }
                columns.push(ColumnDef {
                    name: col_name,
                    ty,
                    not_null,
                    primary_key: pk,
                });
            }
            if !self.eat(&Token::Comma) {
                break;
            }
        }
        self.expect(&Token::RParen)?;
        Ok(Statement::CreateTable {
            name,
            columns,
            primary_key,
        })
    }

    fn parse_type(&mut self) -> Result<DataType> {
        let name = self.ident()?;
        let ty = match name.as_str() {
            "int" | "integer" | "bigint" | "smallint" | "int4" | "int8" => DataType::Int,
            "float" | "float8" | "double" | "real" | "decimal" | "numeric" => DataType::Float,
            "varchar" | "char" | "text" | "string" => DataType::Str,
            "bool" | "boolean" => DataType::Bool,
            other => return Err(Error::parse(format!("unknown type '{other}'"))),
        };
        // Optional length/precision: VARCHAR(40), DECIMAL(10,2).
        if self.eat(&Token::LParen) {
            self.parse_u64()?;
            if self.eat(&Token::Comma) {
                self.parse_u64()?;
            }
            self.expect(&Token::RParen)?;
        }
        Ok(ty)
    }

    fn parse_create_index(&mut self, unique: bool) -> Result<Statement> {
        let name = self.ident()?;
        self.expect_kw("ON")?;
        let table = self.ident()?;
        self.expect(&Token::LParen)?;
        let mut columns = vec![self.ident()?];
        while self.eat(&Token::Comma) {
            columns.push(self.ident()?);
        }
        self.expect(&Token::RParen)?;
        Ok(Statement::CreateIndex {
            name,
            table,
            columns,
            unique,
        })
    }

    fn parse_drop(&mut self) -> Result<Statement> {
        self.expect_kw("DROP")?;
        if self.eat_kw("TABLE") {
            return Ok(Statement::DropTable {
                name: self.ident()?,
            });
        }
        if self.eat_kw("INDEX") {
            return Ok(Statement::DropIndex {
                name: self.ident()?,
            });
        }
        Err(Error::parse(format!(
            "expected TABLE or INDEX after DROP, found {:?}",
            self.peek()
        )))
    }

    fn parse_modify(&mut self) -> Result<Statement> {
        self.expect_kw("MODIFY")?;
        let table = self.ident()?;
        self.expect_kw("TO")?;
        let to = self.ident()?;
        Ok(Statement::Modify { table, to })
    }

    fn parse_set(&mut self) -> Result<Statement> {
        self.expect_kw("SET")?;
        let name = self.ident()?;
        self.expect(&Token::Eq)?;
        let value = match self.bump() {
            Token::Int(i) => Value::Int(i),
            Token::Float(f) => Value::Float(f),
            Token::Str(s) => Value::Str(s),
            Token::Keyword("TRUE") => Value::Bool(true),
            Token::Keyword("FALSE") => Value::Bool(false),
            Token::Ident(s) => Value::Str(s),
            // Bare words that happen to be SQL keywords (`on`, `group`)
            // are legal values, as in `set trace = on`.
            Token::Keyword(k) => Value::Str(k.to_ascii_lowercase()),
            other => return Err(Error::parse(format!("bad SET value {other:?}"))),
        };
        Ok(Statement::Set { name, value })
    }

    // ---- expressions -------------------------------------------------------------

    /// Parse a full expression (lowest precedence: OR).
    pub fn parse_expr(&mut self) -> Result<Expr> {
        self.parse_or()
    }

    fn parse_or(&mut self) -> Result<Expr> {
        let mut lhs = self.parse_and()?;
        while self.eat_kw("OR") {
            let rhs = self.parse_and()?;
            lhs = Expr::bin(BinOp::Or, lhs, rhs);
        }
        Ok(lhs)
    }

    fn parse_and(&mut self) -> Result<Expr> {
        let mut lhs = self.parse_not()?;
        while self.eat_kw("AND") {
            let rhs = self.parse_not()?;
            lhs = Expr::bin(BinOp::And, lhs, rhs);
        }
        Ok(lhs)
    }

    fn parse_not(&mut self) -> Result<Expr> {
        if self.eat_kw("NOT") {
            let e = self.parse_not()?;
            return Ok(Expr::Unary {
                op: UnOp::Not,
                expr: Box::new(e),
            });
        }
        self.parse_comparison()
    }

    fn parse_comparison(&mut self) -> Result<Expr> {
        let lhs = self.parse_additive()?;
        // Postfix predicates: IS NULL / BETWEEN / IN / LIKE, possibly NOT-ed.
        let negated = if self.peek() == &Token::Keyword("NOT")
            && matches!(
                self.peek2(),
                Token::Keyword("BETWEEN") | Token::Keyword("IN") | Token::Keyword("LIKE")
            ) {
            self.bump();
            true
        } else {
            false
        };
        if self.eat_kw("IS") {
            let neg = self.eat_kw("NOT");
            self.expect_kw("NULL")?;
            return Ok(Expr::IsNull {
                expr: Box::new(lhs),
                negated: neg,
            });
        }
        if self.eat_kw("BETWEEN") {
            let lo = self.parse_additive()?;
            self.expect_kw("AND")?;
            let hi = self.parse_additive()?;
            return Ok(Expr::Between {
                expr: Box::new(lhs),
                lo: Box::new(lo),
                hi: Box::new(hi),
                negated,
            });
        }
        if self.eat_kw("IN") {
            self.expect(&Token::LParen)?;
            let mut list = vec![self.parse_expr()?];
            while self.eat(&Token::Comma) {
                list.push(self.parse_expr()?);
            }
            self.expect(&Token::RParen)?;
            return Ok(Expr::InList {
                expr: Box::new(lhs),
                list,
                negated,
            });
        }
        if self.eat_kw("LIKE") {
            let pattern = match self.bump() {
                Token::Str(s) => s,
                other => {
                    return Err(Error::parse(format!(
                        "LIKE needs a string pattern, found {other:?}"
                    )))
                }
            };
            return Ok(Expr::Like {
                expr: Box::new(lhs),
                pattern,
                negated,
            });
        }
        if negated {
            return Err(Error::parse("dangling NOT before comparison"));
        }
        let op = match self.peek() {
            Token::Eq => BinOp::Eq,
            Token::Neq => BinOp::Neq,
            Token::Lt => BinOp::Lt,
            Token::Le => BinOp::Le,
            Token::Gt => BinOp::Gt,
            Token::Ge => BinOp::Ge,
            _ => return Ok(lhs),
        };
        self.bump();
        let rhs = self.parse_additive()?;
        Ok(Expr::bin(op, lhs, rhs))
    }

    fn parse_additive(&mut self) -> Result<Expr> {
        let mut lhs = self.parse_multiplicative()?;
        loop {
            let op = match self.peek() {
                Token::Plus => BinOp::Add,
                Token::Minus => BinOp::Sub,
                _ => return Ok(lhs),
            };
            self.bump();
            let rhs = self.parse_multiplicative()?;
            lhs = Expr::bin(op, lhs, rhs);
        }
    }

    fn parse_multiplicative(&mut self) -> Result<Expr> {
        let mut lhs = self.parse_unary()?;
        loop {
            let op = match self.peek() {
                Token::Star => BinOp::Mul,
                Token::Slash => BinOp::Div,
                Token::Percent => BinOp::Mod,
                _ => return Ok(lhs),
            };
            self.bump();
            let rhs = self.parse_unary()?;
            lhs = Expr::bin(op, lhs, rhs);
        }
    }

    fn parse_unary(&mut self) -> Result<Expr> {
        if self.eat(&Token::Minus) {
            let e = self.parse_unary()?;
            // Fold negative literals.
            return Ok(match e {
                Expr::Literal(Value::Int(i)) => Expr::Literal(Value::Int(-i)),
                Expr::Literal(Value::Float(f)) => Expr::Literal(Value::Float(-f)),
                other => Expr::Unary {
                    op: UnOp::Neg,
                    expr: Box::new(other),
                },
            });
        }
        if self.eat(&Token::Plus) {
            return self.parse_unary();
        }
        self.parse_primary()
    }

    fn parse_primary(&mut self) -> Result<Expr> {
        match self.bump() {
            Token::Int(i) => Ok(Expr::Literal(Value::Int(i))),
            Token::Param(n) => Ok(Expr::Param(n as usize - 1)),
            Token::Float(f) => Ok(Expr::Literal(Value::Float(f))),
            Token::Str(s) => Ok(Expr::Literal(Value::Str(s))),
            Token::Keyword("NULL") => Ok(Expr::Literal(Value::Null)),
            Token::Keyword("TRUE") => Ok(Expr::Literal(Value::Bool(true))),
            Token::Keyword("FALSE") => Ok(Expr::Literal(Value::Bool(false))),
            Token::LParen => {
                let e = self.parse_expr()?;
                self.expect(&Token::RParen)?;
                Ok(e)
            }
            Token::Ident(name) => {
                // Function call?
                if self.peek() == &Token::LParen {
                    self.bump();
                    if name == "count" && self.peek() == &Token::Star {
                        self.bump();
                        self.expect(&Token::RParen)?;
                        return Ok(Expr::CountStar);
                    }
                    let distinct = self.eat_kw("DISTINCT");
                    let mut args = Vec::new();
                    if self.peek() != &Token::RParen {
                        args.push(self.parse_expr()?);
                        while self.eat(&Token::Comma) {
                            args.push(self.parse_expr()?);
                        }
                    }
                    self.expect(&Token::RParen)?;
                    return Ok(Expr::Call {
                        func: name,
                        args,
                        distinct,
                    });
                }
                // Qualified column `t.c`?
                if self.eat(&Token::Dot) {
                    let col = self.ident()?;
                    return Ok(Expr::Column {
                        table: Some(name),
                        name: col,
                    });
                }
                Ok(Expr::Column { table: None, name })
            }
            other => Err(Error::parse(format!(
                "unexpected token in expression: {other:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sel(sql: &str) -> SelectStmt {
        match parse_statement(sql).unwrap() {
            Statement::Select(s) => s,
            other => panic!("expected SELECT, got {other:?}"),
        }
    }

    #[test]
    fn paper_point_query() {
        // The paper's 1m-test statement shape.
        let s = sel("select p.nref_id from protein p where p.nref_id = 'NF00000001'");
        assert_eq!(s.from.len(), 1);
        assert_eq!(s.from[0].name, "protein");
        assert_eq!(s.from[0].alias.as_deref(), Some("p"));
        assert!(s.filter.is_some());
    }

    #[test]
    fn paper_join_query() {
        // The paper's 50k-test statement shape.
        let s = sel("select p.nref_id, sequence, ordinal from protein p \
             join organism o on p.nref_id = o.nref_id where p.nref_id = 'NF001'");
        assert_eq!(s.items.len(), 3);
        assert_eq!(s.from[0].joins.len(), 1);
        assert_eq!(s.from[0].joins[0].name, "organism");
        assert!(matches!(
            s.from[0].joins[0].on,
            Expr::Binary { op: BinOp::Eq, .. }
        ));
    }

    #[test]
    fn group_order_limit() {
        let s = sel("select taxon_id, count(*) as n, avg(len) from protein \
             group by taxon_id having count(*) > 10 order by n desc, taxon_id limit 5 offset 2");
        assert_eq!(s.group_by.len(), 1);
        assert!(s.having.is_some());
        assert_eq!(s.order_by.len(), 2);
        assert!(s.order_by[0].desc);
        assert!(!s.order_by[1].desc);
        assert_eq!(s.limit, Some(5));
        assert_eq!(s.offset, Some(2));
    }

    #[test]
    fn precedence_and_or_comparison() {
        let s = sel("select 1 from t where a = 1 and b = 2 or c = 3");
        let Expr::Binary { op, left, .. } = s.filter.unwrap() else {
            panic!()
        };
        assert_eq!(op, BinOp::Or);
        assert!(matches!(*left, Expr::Binary { op: BinOp::And, .. }));
    }

    #[test]
    fn arithmetic_precedence() {
        let s = sel("select 1 + 2 * 3 from t");
        let SelectItem::Expr { expr, .. } = &s.items[0] else {
            panic!()
        };
        let Expr::Binary { op, right, .. } = expr else {
            panic!()
        };
        assert_eq!(*op, BinOp::Add);
        assert!(matches!(**right, Expr::Binary { op: BinOp::Mul, .. }));
    }

    #[test]
    fn between_in_like_is_null() {
        let s = sel("select 1 from t where a between 1 and 5 and b in (1, 2) \
             and c like 'NF%' and d is not null and e not in (3)");
        let conj = s.filter.as_ref().unwrap().conjuncts().len();
        assert_eq!(conj, 5);
    }

    #[test]
    fn insert_multi_row() {
        let st = parse_statement(
            "insert into protein (nref_id, name) values ('NF1', 'a'), ('NF2', 'b')",
        )
        .unwrap();
        let Statement::Insert {
            table,
            columns,
            rows,
        } = st
        else {
            panic!()
        };
        assert_eq!(table, "protein");
        assert_eq!(columns.unwrap().len(), 2);
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn update_delete() {
        let st = parse_statement("update t set a = a + 1, b = 'x' where id = 3").unwrap();
        let Statement::Update { sets, filter, .. } = st else {
            panic!()
        };
        assert_eq!(sets.len(), 2);
        assert!(filter.is_some());
        let st = parse_statement("delete from t where id < 10").unwrap();
        assert!(matches!(st, Statement::Delete { .. }));
    }

    #[test]
    fn create_table_with_pk_variants() {
        let st = parse_statement(
            "create table protein (nref_id varchar(12) not null primary key, \
             name text, len int, score float)",
        )
        .unwrap();
        let Statement::CreateTable {
            columns,
            primary_key,
            ..
        } = st
        else {
            panic!()
        };
        assert_eq!(columns.len(), 4);
        assert_eq!(primary_key, vec!["nref_id"]);
        assert!(columns[0].not_null);

        let st = parse_statement("create table m (a int, b int, primary key (a, b))").unwrap();
        let Statement::CreateTable { primary_key, .. } = st else {
            panic!()
        };
        assert_eq!(primary_key, vec!["a", "b"]);
    }

    #[test]
    fn ingres_admin_statements() {
        assert_eq!(
            parse_statement("modify protein to btree").unwrap(),
            Statement::Modify {
                table: "protein".into(),
                to: "btree".into()
            }
        );
        assert_eq!(
            parse_statement("create statistics on protein (len, taxon_id)").unwrap(),
            Statement::CreateStatistics {
                table: "protein".into(),
                columns: vec!["len".into(), "taxon_id".into()]
            }
        );
        assert!(matches!(
            parse_statement("create unique index pid on protein (nref_id)").unwrap(),
            Statement::CreateIndex { unique: true, .. }
        ));
        assert!(matches!(
            parse_statement("explain select 1 from t").unwrap(),
            Statement::Explain { analyze: false, .. }
        ));
        assert!(matches!(
            parse_statement("EXPLAIN ANALYZE select 1 from t").unwrap(),
            Statement::Explain { analyze: true, .. }
        ));
        // ANALYZE only has meaning directly after EXPLAIN.
        assert!(parse_statement("analyze select 1 from t").is_err());
    }

    #[test]
    fn script_parsing() {
        let stmts =
            parse_statements("create table t (a int); insert into t values (1); select * from t;")
                .unwrap();
        assert_eq!(stmts.len(), 3);
        assert!(parse_statements("").unwrap().is_empty());
        assert!(parse_statements(";;").unwrap().is_empty());
    }

    #[test]
    fn negative_literals_fold() {
        let s = sel("select -5, -2.5 from t");
        assert_eq!(
            s.items[0],
            SelectItem::Expr {
                expr: Expr::Literal(Value::Int(-5)),
                alias: None
            }
        );
    }

    #[test]
    fn errors_are_reported() {
        assert!(parse_statement("select from").is_err());
        assert!(parse_statement("insert t values (1)").is_err());
        assert!(parse_statement("create table t (a unknown_type)").is_err());
        assert!(parse_statement("select 1 from t where").is_err());
        assert!(parse_statement("select 1 extra garbage !").is_err());
    }

    #[test]
    fn parameter_markers_parse_into_exprs() {
        let s = sel("select name from protein where nref_id = $1");
        let Expr::Binary { right, .. } = s.filter.unwrap() else {
            panic!()
        };
        assert_eq!(*right, Expr::Param(0));
        // Anonymous markers number left to right across the statement.
        let s = sel("select 1 from t where a = ? and b between ? and ?");
        assert_eq!(param_count(&Statement::Select(s)), 3);
        // Markers in INSERT rows.
        let st = parse_statement("insert into t (a, b) values ($1, $2)").unwrap();
        assert_eq!(param_count(&st), 2);
    }

    #[test]
    fn qualified_wildcard() {
        let s = sel("select p.* from protein p");
        assert_eq!(s.items[0], SelectItem::QualifiedWildcard("p".into()));
    }

    #[test]
    fn count_star_and_distinct() {
        let s = sel("select count(*), count(distinct a), sum(b) from t");
        assert_eq!(s.items.len(), 3);
        assert!(matches!(
            s.items[0],
            SelectItem::Expr {
                expr: Expr::CountStar,
                ..
            }
        ));
        let SelectItem::Expr {
            expr: Expr::Call { distinct, .. },
            ..
        } = &s.items[1]
        else {
            panic!()
        };
        assert!(distinct);
    }

    #[test]
    fn set_statement() {
        assert_eq!(
            parse_statement("set monitor_enabled = true").unwrap(),
            Statement::Set {
                name: "monitor_enabled".into(),
                value: Value::Bool(true)
            }
        );
    }
}
