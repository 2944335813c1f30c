//! Golden fixture: every file of the engine module is policed like the
//! single engine file it replaced — panic-freedom (check 2), error
//! discipline (check 5) and swallowed results (check 11).

pub fn execute(&self, sql: &str) -> Result<StatementResult, String> {
    let plan = self.plan_cache.probe(sql).unwrap();
    let _ = self.engine.commit_txn(txn);
    Ok(plan)
}
