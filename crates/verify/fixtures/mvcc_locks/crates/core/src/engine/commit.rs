//! Golden fixture: MVCC locking discipline, commit side.

pub fn commit_txn(&self, txn: TxnId) {
    let lsn = self.wal.append(&WalRecord::Commit { txn, commit_ts });
    self.wal.commit_barrier(lsn);
    self.txns.commit(txn);
}
