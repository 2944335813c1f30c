//! Golden fixture: lock-order violations.

pub fn sneaky_ddl(catalog: &Shared, locks: &Locks) {
    let _guard = catalog.write();
    locks.lock(1);
}

pub fn run_ddl(catalog: &Shared) {
    let _guard = catalog.write();
}
