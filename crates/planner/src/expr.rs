//! Physical expressions: resolved, offset-addressed and directly evaluable
//! against executor rows.

use std::fmt;

use ingot_common::{Error, Result, Row, Value};
use ingot_sql::{BinOp, UnOp};

/// An executable expression. Column references are flat offsets into the
/// operator's input row (the optimizer computes them for the join order it
/// chose).
#[derive(Debug, Clone, PartialEq)]
pub enum PhysExpr {
    /// Literal value.
    Literal(Value),
    /// Prepared-statement parameter marker, 0-based (`$1` binds slot 0).
    /// Plans containing `Param` are templates: [`PhysExpr::substitute`]
    /// replaces every marker with a bound literal before execution.
    Param(usize),
    /// Input-row column at a flat offset.
    Col(usize),
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        left: Box<PhysExpr>,
        /// Right operand.
        right: Box<PhysExpr>,
    },
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnOp,
        /// Operand.
        expr: Box<PhysExpr>,
    },
    /// `IS [NOT] NULL`.
    IsNull {
        /// Operand.
        expr: Box<PhysExpr>,
        /// Negated form.
        negated: bool,
    },
    /// `[NOT] BETWEEN`.
    Between {
        /// Tested expression.
        expr: Box<PhysExpr>,
        /// Lower bound.
        lo: Box<PhysExpr>,
        /// Upper bound.
        hi: Box<PhysExpr>,
        /// Negated form.
        negated: bool,
    },
    /// `[NOT] IN (…)`.
    InList {
        /// Tested expression.
        expr: Box<PhysExpr>,
        /// Candidates.
        list: Vec<PhysExpr>,
        /// Negated form.
        negated: bool,
    },
    /// `[NOT] LIKE`.
    Like {
        /// Tested expression.
        expr: Box<PhysExpr>,
        /// Pattern with `%` / `_` wildcards.
        pattern: String,
        /// Negated form.
        negated: bool,
    },
    /// Scalar function call (`abs`, `length`, `upper`, `lower`).
    Call {
        /// Function name (lower-case).
        func: String,
        /// Arguments.
        args: Vec<PhysExpr>,
    },
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// `COUNT(*)` / `COUNT(expr)`.
    Count,
    /// `SUM`.
    Sum,
    /// `AVG`.
    Avg,
    /// `MIN`.
    Min,
    /// `MAX`.
    Max,
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Avg => "avg",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
        };
        write!(f, "{s}")
    }
}

/// One aggregate computation in an `Aggregate` operator.
#[derive(Debug, Clone, PartialEq)]
pub struct AggSpec {
    /// The function.
    pub func: AggFunc,
    /// Input expression; `None` for `COUNT(*)`.
    pub input: Option<PhysExpr>,
    /// `DISTINCT` aggregation.
    pub distinct: bool,
}

impl PhysExpr {
    /// Evaluate against an input row.
    pub fn eval(&self, row: &Row) -> Result<Value> {
        match self {
            PhysExpr::Literal(v) => Ok(v.clone()),
            PhysExpr::Param(i) => Err(Error::execution(format!(
                "unbound parameter ${} (plan template executed without substitution)",
                i + 1
            ))),
            PhysExpr::Col(i) => {
                if *i >= row.len() {
                    return Err(Error::execution(format!(
                        "column offset {i} out of range (row width {})",
                        row.len()
                    )));
                }
                Ok(row.get(*i).clone())
            }
            PhysExpr::Binary { op, left, right } => {
                let l = left.eval(row)?;
                // Short-circuit AND/OR with three-valued logic.
                match op {
                    BinOp::And => {
                        return eval_and(&l, || right.eval(row));
                    }
                    BinOp::Or => {
                        return eval_or(&l, || right.eval(row));
                    }
                    _ => {}
                }
                let r = right.eval(row)?;
                eval_binary(*op, &l, &r)
            }
            PhysExpr::Unary { op, expr } => {
                let v = expr.eval(row)?;
                match (op, v) {
                    (_, Value::Null) => Ok(Value::Null),
                    (UnOp::Neg, Value::Int(i)) => Ok(Value::Int(-i)),
                    (UnOp::Neg, Value::Float(f)) => Ok(Value::Float(-f)),
                    (UnOp::Not, Value::Bool(b)) => Ok(Value::Bool(!b)),
                    (op, v) => Err(Error::type_error(format!("cannot apply {op:?} to {v}"))),
                }
            }
            PhysExpr::IsNull { expr, negated } => {
                let v = expr.eval(row)?;
                Ok(Value::Bool(v.is_null() != *negated))
            }
            PhysExpr::Between {
                expr,
                lo,
                hi,
                negated,
            } => {
                let v = expr.eval(row)?;
                let lo = lo.eval(row)?;
                let hi = hi.eval(row)?;
                if v.is_null() || lo.is_null() || hi.is_null() {
                    return Ok(Value::Null);
                }
                let inside = v >= lo && v <= hi;
                Ok(Value::Bool(inside != *negated))
            }
            PhysExpr::InList {
                expr,
                list,
                negated,
            } => {
                let v = expr.eval(row)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                let mut saw_null = false;
                for cand in list {
                    let c = cand.eval(row)?;
                    if c.is_null() {
                        saw_null = true;
                    } else if values_equal(&v, &c) {
                        return Ok(Value::Bool(!*negated));
                    }
                }
                if saw_null {
                    Ok(Value::Null)
                } else {
                    Ok(Value::Bool(*negated))
                }
            }
            PhysExpr::Like {
                expr,
                pattern,
                negated,
            } => {
                let v = expr.eval(row)?;
                match v {
                    Value::Null => Ok(Value::Null),
                    Value::Str(s) => Ok(Value::Bool(like_match(&s, pattern) != *negated)),
                    other => Err(Error::type_error(format!(
                        "LIKE needs a string, got {other}"
                    ))),
                }
            }
            PhysExpr::Call { func, args } => {
                let vals: Vec<Value> = args.iter().map(|a| a.eval(row)).collect::<Result<_>>()?;
                eval_scalar_fn(func, &vals)
            }
        }
    }

    /// Evaluate as a predicate: NULL counts as false (SQL WHERE semantics).
    pub fn eval_predicate(&self, row: &Row) -> Result<bool> {
        match self.eval(row)? {
            Value::Bool(b) => Ok(b),
            Value::Null => Ok(false),
            other => Err(Error::type_error(format!(
                "predicate evaluated to non-boolean {other}"
            ))),
        }
    }

    /// The literal value, if this expression is a constant.
    pub fn as_literal(&self) -> Option<&Value> {
        match self {
            PhysExpr::Literal(v) => Some(v),
            _ => None,
        }
    }

    /// Collect all column offsets referenced.
    pub fn columns(&self, out: &mut Vec<usize>) {
        self.for_each_column(&mut |c| out.push(c));
    }

    /// Call `f` with every column offset referenced (repeats included).
    pub fn for_each_column(&self, f: &mut impl FnMut(usize)) {
        match self {
            PhysExpr::Literal(_) | PhysExpr::Param(_) => {}
            PhysExpr::Col(i) => f(*i),
            PhysExpr::Binary { left, right, .. } => {
                left.for_each_column(f);
                right.for_each_column(f);
            }
            PhysExpr::Unary { expr, .. }
            | PhysExpr::IsNull { expr, .. }
            | PhysExpr::Like { expr, .. } => expr.for_each_column(f),
            PhysExpr::Between { expr, lo, hi, .. } => {
                expr.for_each_column(f);
                lo.for_each_column(f);
                hi.for_each_column(f);
            }
            PhysExpr::InList { expr, list, .. } => {
                expr.for_each_column(f);
                for e in list {
                    e.for_each_column(f);
                }
            }
            PhysExpr::Call { args, .. } => {
                for a in args {
                    a.for_each_column(f);
                }
            }
        }
    }

    /// Rewrite every column offset through `map` (used when the optimizer
    /// re-bases expressions onto an operator's local row layout).
    pub fn remap(&self, map: &dyn Fn(usize) -> usize) -> PhysExpr {
        match self {
            PhysExpr::Literal(v) => PhysExpr::Literal(v.clone()),
            PhysExpr::Param(i) => PhysExpr::Param(*i),
            PhysExpr::Col(i) => PhysExpr::Col(map(*i)),
            PhysExpr::Binary { op, left, right } => PhysExpr::Binary {
                op: *op,
                left: Box::new(left.remap(map)),
                right: Box::new(right.remap(map)),
            },
            PhysExpr::Unary { op, expr } => PhysExpr::Unary {
                op: *op,
                expr: Box::new(expr.remap(map)),
            },
            PhysExpr::IsNull { expr, negated } => PhysExpr::IsNull {
                expr: Box::new(expr.remap(map)),
                negated: *negated,
            },
            PhysExpr::Between {
                expr,
                lo,
                hi,
                negated,
            } => PhysExpr::Between {
                expr: Box::new(expr.remap(map)),
                lo: Box::new(lo.remap(map)),
                hi: Box::new(hi.remap(map)),
                negated: *negated,
            },
            PhysExpr::InList {
                expr,
                list,
                negated,
            } => PhysExpr::InList {
                expr: Box::new(expr.remap(map)),
                list: list.iter().map(|e| e.remap(map)).collect(),
                negated: *negated,
            },
            PhysExpr::Like {
                expr,
                pattern,
                negated,
            } => PhysExpr::Like {
                expr: Box::new(expr.remap(map)),
                pattern: pattern.clone(),
                negated: *negated,
            },
            PhysExpr::Call { func, args } => PhysExpr::Call {
                func: func.clone(),
                args: args.iter().map(|a| a.remap(map)).collect(),
            },
        }
    }

    /// True if the expression contains at least one [`PhysExpr::Param`].
    pub fn has_params(&self) -> bool {
        match self {
            PhysExpr::Param(_) => true,
            PhysExpr::Literal(_) | PhysExpr::Col(_) => false,
            PhysExpr::Binary { left, right, .. } => left.has_params() || right.has_params(),
            PhysExpr::Unary { expr, .. }
            | PhysExpr::IsNull { expr, .. }
            | PhysExpr::Like { expr, .. } => expr.has_params(),
            PhysExpr::Between { expr, lo, hi, .. } => {
                expr.has_params() || lo.has_params() || hi.has_params()
            }
            PhysExpr::InList { expr, list, .. } => {
                expr.has_params() || list.iter().any(PhysExpr::has_params)
            }
            PhysExpr::Call { args, .. } => args.iter().any(PhysExpr::has_params),
        }
    }

    /// Replace every [`PhysExpr::Param`] with the corresponding bound value.
    /// The caller checks arity up front; an out-of-range slot here means the
    /// plan template and its declared parameter count disagree.
    pub fn substitute(&self, params: &[Value]) -> Result<PhysExpr> {
        Ok(match self {
            PhysExpr::Param(i) => match params.get(*i) {
                Some(v) => PhysExpr::Literal(v.clone()),
                None => {
                    return Err(Error::execution(format!(
                        "unbound parameter ${} ({} value(s) supplied)",
                        i + 1,
                        params.len()
                    )))
                }
            },
            PhysExpr::Literal(v) => PhysExpr::Literal(v.clone()),
            PhysExpr::Col(i) => PhysExpr::Col(*i),
            PhysExpr::Binary { op, left, right } => PhysExpr::Binary {
                op: *op,
                left: Box::new(left.substitute(params)?),
                right: Box::new(right.substitute(params)?),
            },
            PhysExpr::Unary { op, expr } => PhysExpr::Unary {
                op: *op,
                expr: Box::new(expr.substitute(params)?),
            },
            PhysExpr::IsNull { expr, negated } => PhysExpr::IsNull {
                expr: Box::new(expr.substitute(params)?),
                negated: *negated,
            },
            PhysExpr::Between {
                expr,
                lo,
                hi,
                negated,
            } => PhysExpr::Between {
                expr: Box::new(expr.substitute(params)?),
                lo: Box::new(lo.substitute(params)?),
                hi: Box::new(hi.substitute(params)?),
                negated: *negated,
            },
            PhysExpr::InList {
                expr,
                list,
                negated,
            } => PhysExpr::InList {
                expr: Box::new(expr.substitute(params)?),
                list: list
                    .iter()
                    .map(|e| e.substitute(params))
                    .collect::<Result<_>>()?,
                negated: *negated,
            },
            PhysExpr::Like {
                expr,
                pattern,
                negated,
            } => PhysExpr::Like {
                expr: Box::new(expr.substitute(params)?),
                pattern: pattern.clone(),
                negated: *negated,
            },
            PhysExpr::Call { func, args } => PhysExpr::Call {
                func: func.clone(),
                args: args
                    .iter()
                    .map(|a| a.substitute(params))
                    .collect::<Result<_>>()?,
            },
        })
    }
}

fn bool_of(v: &Value) -> Option<bool> {
    match v {
        Value::Bool(b) => Some(*b),
        Value::Null => None,
        _ => None,
    }
}

fn eval_and(l: &Value, rf: impl FnOnce() -> Result<Value>) -> Result<Value> {
    match bool_of(l) {
        Some(false) => Ok(Value::Bool(false)),
        lb => {
            let r = rf()?;
            match (lb, bool_of(&r)) {
                (_, Some(false)) => Ok(Value::Bool(false)),
                (Some(true), Some(true)) => Ok(Value::Bool(true)),
                _ => Ok(Value::Null),
            }
        }
    }
}

fn eval_or(l: &Value, rf: impl FnOnce() -> Result<Value>) -> Result<Value> {
    match bool_of(l) {
        Some(true) => Ok(Value::Bool(true)),
        lb => {
            let r = rf()?;
            match (lb, bool_of(&r)) {
                (_, Some(true)) => Ok(Value::Bool(true)),
                (Some(false), Some(false)) => Ok(Value::Bool(false)),
                _ => Ok(Value::Null),
            }
        }
    }
}

/// Numeric-aware equality (Int 2 == Float 2.0).
pub fn values_equal(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Int(x), Value::Float(y)) | (Value::Float(y), Value::Int(x)) => *x as f64 == *y,
        _ => a == b,
    }
}

fn eval_binary(op: BinOp, l: &Value, r: &Value) -> Result<Value> {
    use Value::*;
    if l.is_null() || r.is_null() {
        return Ok(Null);
    }
    if op.is_comparison() {
        let ord = l.cmp(r);
        let b = match op {
            BinOp::Eq => ord == std::cmp::Ordering::Equal,
            BinOp::Neq => ord != std::cmp::Ordering::Equal,
            BinOp::Lt => ord == std::cmp::Ordering::Less,
            BinOp::Le => ord != std::cmp::Ordering::Greater,
            BinOp::Gt => ord == std::cmp::Ordering::Greater,
            BinOp::Ge => ord != std::cmp::Ordering::Less,
            _ => unreachable!(),
        };
        return Ok(Bool(b));
    }
    match op {
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => match (l, r) {
            (Int(a), Int(b)) => {
                let b = *b;
                let a = *a;
                Ok(match op {
                    BinOp::Add => Int(a.wrapping_add(b)),
                    BinOp::Sub => Int(a.wrapping_sub(b)),
                    BinOp::Mul => Int(a.wrapping_mul(b)),
                    BinOp::Div => {
                        if b == 0 {
                            return Err(Error::execution("division by zero"));
                        }
                        Int(a / b)
                    }
                    BinOp::Mod => {
                        if b == 0 {
                            return Err(Error::execution("modulo by zero"));
                        }
                        Int(a % b)
                    }
                    _ => unreachable!(),
                })
            }
            (Str(a), Str(b)) if op == BinOp::Add => Ok(Str(format!("{a}{b}"))),
            _ => {
                let (Some(a), Some(b)) = (l.as_f64(), r.as_f64()) else {
                    return Err(Error::type_error(format!("cannot compute {l} {op:?} {r}")));
                };
                Ok(match op {
                    BinOp::Add => Float(a + b),
                    BinOp::Sub => Float(a - b),
                    BinOp::Mul => Float(a * b),
                    BinOp::Div => {
                        if b == 0.0 {
                            return Err(Error::execution("division by zero"));
                        }
                        Float(a / b)
                    }
                    BinOp::Mod => Float(a % b),
                    _ => unreachable!(),
                })
            }
        },
        BinOp::And | BinOp::Or => unreachable!("handled by caller"),
        _ => unreachable!(),
    }
}

fn eval_scalar_fn(func: &str, args: &[Value]) -> Result<Value> {
    let arg = |i: usize| -> Result<&Value> {
        args.get(i)
            .ok_or_else(|| Error::type_error(format!("{func}: missing argument {i}")))
    };
    match func {
        "abs" => match arg(0)? {
            Value::Null => Ok(Value::Null),
            Value::Int(i) => Ok(Value::Int(i.abs())),
            Value::Float(f) => Ok(Value::Float(f.abs())),
            other => Err(Error::type_error(format!("abs({other}) is not numeric"))),
        },
        "length" => match arg(0)? {
            Value::Null => Ok(Value::Null),
            Value::Str(s) => Ok(Value::Int(s.len() as i64)),
            other => Err(Error::type_error(format!(
                "length({other}) is not a string"
            ))),
        },
        "upper" => match arg(0)? {
            Value::Null => Ok(Value::Null),
            Value::Str(s) => Ok(Value::Str(s.to_uppercase())),
            other => Err(Error::type_error(format!("upper({other}) is not a string"))),
        },
        "lower" => match arg(0)? {
            Value::Null => Ok(Value::Null),
            Value::Str(s) => Ok(Value::Str(s.to_lowercase())),
            other => Err(Error::type_error(format!("lower({other}) is not a string"))),
        },
        other => Err(Error::unsupported(format!("unknown function '{other}'"))),
    }
}

/// SQL `LIKE` matching with `%` (any run) and `_` (any one char).
pub fn like_match(s: &str, pattern: &str) -> bool {
    fn rec(s: &[u8], p: &[u8]) -> bool {
        match p.first() {
            None => s.is_empty(),
            Some(b'%') => {
                // Collapse consecutive %.
                let p = &p[1..];
                if p.is_empty() {
                    return true;
                }
                (0..=s.len()).any(|i| rec(&s[i..], p))
            }
            Some(b'_') => !s.is_empty() && rec(&s[1..], &p[1..]),
            Some(&c) => s.first() == Some(&c) && rec(&s[1..], &p[1..]),
        }
    }
    rec(s.as_bytes(), pattern.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row() -> Row {
        Row::new(vec![
            Value::Int(10),
            Value::Str("NF0042".into()),
            Value::Null,
            Value::Float(2.5),
        ])
    }

    fn lit(v: Value) -> PhysExpr {
        PhysExpr::Literal(v)
    }

    #[test]
    fn arithmetic_and_comparison() {
        let e = PhysExpr::Binary {
            op: BinOp::Mul,
            left: Box::new(PhysExpr::Col(0)),
            right: Box::new(lit(Value::Int(3))),
        };
        assert_eq!(e.eval(&row()).unwrap(), Value::Int(30));
        let cmp = PhysExpr::Binary {
            op: BinOp::Gt,
            left: Box::new(e),
            right: Box::new(lit(Value::Float(29.5))),
        };
        assert_eq!(cmp.eval(&row()).unwrap(), Value::Bool(true));
    }

    #[test]
    fn null_propagation_three_valued() {
        // NULL = NULL → NULL, and WHERE treats it as false.
        let e = PhysExpr::Binary {
            op: BinOp::Eq,
            left: Box::new(PhysExpr::Col(2)),
            right: Box::new(PhysExpr::Col(2)),
        };
        assert_eq!(e.eval(&row()).unwrap(), Value::Null);
        assert!(!e.eval_predicate(&row()).unwrap());
        // FALSE AND NULL → FALSE; TRUE OR NULL → TRUE.
        let f_and_null = PhysExpr::Binary {
            op: BinOp::And,
            left: Box::new(lit(Value::Bool(false))),
            right: Box::new(lit(Value::Null)),
        };
        assert_eq!(f_and_null.eval(&row()).unwrap(), Value::Bool(false));
        let t_or_null = PhysExpr::Binary {
            op: BinOp::Or,
            left: Box::new(lit(Value::Bool(true))),
            right: Box::new(lit(Value::Null)),
        };
        assert_eq!(t_or_null.eval(&row()).unwrap(), Value::Bool(true));
    }

    #[test]
    fn is_null_between_in() {
        let isn = PhysExpr::IsNull {
            expr: Box::new(PhysExpr::Col(2)),
            negated: false,
        };
        assert_eq!(isn.eval(&row()).unwrap(), Value::Bool(true));
        let btw = PhysExpr::Between {
            expr: Box::new(PhysExpr::Col(0)),
            lo: Box::new(lit(Value::Int(5))),
            hi: Box::new(lit(Value::Int(15))),
            negated: false,
        };
        assert_eq!(btw.eval(&row()).unwrap(), Value::Bool(true));
        let inl = PhysExpr::InList {
            expr: Box::new(PhysExpr::Col(0)),
            list: vec![lit(Value::Int(1)), lit(Value::Int(10))],
            negated: true,
        };
        assert_eq!(inl.eval(&row()).unwrap(), Value::Bool(false));
        // NOT IN with a NULL candidate and no match → NULL.
        let inl_null = PhysExpr::InList {
            expr: Box::new(PhysExpr::Col(0)),
            list: vec![lit(Value::Null)],
            negated: true,
        };
        assert_eq!(inl_null.eval(&row()).unwrap(), Value::Null);
    }

    #[test]
    fn like_patterns() {
        assert!(like_match("NF0042", "NF%"));
        assert!(like_match("NF0042", "%42"));
        assert!(like_match("NF0042", "NF__42"));
        assert!(like_match("NF0042", "%F0%"));
        assert!(!like_match("NF0042", "NG%"));
        assert!(like_match("", "%"));
        assert!(!like_match("", "_"));
        assert!(like_match("abc", "abc"));
    }

    #[test]
    fn division_errors() {
        let e = PhysExpr::Binary {
            op: BinOp::Div,
            left: Box::new(lit(Value::Int(1))),
            right: Box::new(lit(Value::Int(0))),
        };
        assert!(e.eval(&row()).is_err());
    }

    #[test]
    fn scalar_functions() {
        let len = PhysExpr::Call {
            func: "length".into(),
            args: vec![PhysExpr::Col(1)],
        };
        assert_eq!(len.eval(&row()).unwrap(), Value::Int(6));
        let abs = PhysExpr::Call {
            func: "abs".into(),
            args: vec![lit(Value::Int(-3))],
        };
        assert_eq!(abs.eval(&row()).unwrap(), Value::Int(3));
        let bad = PhysExpr::Call {
            func: "nosuch".into(),
            args: vec![],
        };
        assert!(bad.eval(&row()).is_err());
    }

    #[test]
    fn remap_and_columns() {
        let e = PhysExpr::Binary {
            op: BinOp::Eq,
            left: Box::new(PhysExpr::Col(2)),
            right: Box::new(PhysExpr::Col(5)),
        };
        let mut cols = Vec::new();
        e.columns(&mut cols);
        assert_eq!(cols, vec![2, 5]);
        let shifted = e.remap(&|i| i - 2);
        let mut cols2 = Vec::new();
        shifted.columns(&mut cols2);
        assert_eq!(cols2, vec![0, 3]);
    }

    #[test]
    fn params_substitute_and_refuse_raw_eval() {
        let e = PhysExpr::Binary {
            op: BinOp::Eq,
            left: Box::new(PhysExpr::Col(0)),
            right: Box::new(PhysExpr::Param(0)),
        };
        assert!(e.has_params());
        // Executing a template without substitution is an error, not a NULL.
        assert!(e.eval(&row()).is_err());
        let bound = e.substitute(&[Value::Int(10)]).unwrap();
        assert!(!bound.has_params());
        assert_eq!(bound.eval(&row()).unwrap(), Value::Bool(true));
        // Too few values → arity failure at substitution time.
        assert!(e.substitute(&[]).is_err());
        // Substitution leaves non-param expressions untouched.
        let plain = PhysExpr::Col(3);
        assert_eq!(plain.substitute(&[]).unwrap(), plain);
    }

    #[test]
    fn string_concat() {
        let e = PhysExpr::Binary {
            op: BinOp::Add,
            left: Box::new(lit(Value::Str("a".into()))),
            right: Box::new(lit(Value::Str("b".into()))),
        };
        assert_eq!(e.eval(&row()).unwrap(), Value::Str("ab".into()));
    }
}
