//! Golden fixture: MVCC locking discipline, DDL side.

pub fn run_ddl(&self, name: &str) {
    self.with_table_lock_by_name(name, LockMode::Exclusive, |eng| eng.drop(name));
}

pub fn eager_update(&self, txn: TxnId, id: TableId) {
    self.locks.lock(txn, Resource::Table(id), LockMode::Exclusive);
}

pub fn fenced_update(&self, txn: TxnId, id: TableId, root: u64) {
    self.locks.lock(txn, Resource::Table(id), LockMode::Shared);
    self.locks.lock(txn, Resource::Row(id, root), LockMode::Exclusive);
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_helpers_may_exclude_tables() {
        locks.lock(txn, Resource::Table(id), LockMode::Exclusive);
    }
}
