//! Golden fixture: lock-order violations.

pub fn sneaky_ddl(catalog: &Shared, locks: &Locks) {
    let _guard = catalog.write();
    locks.lock(1);
}

pub fn change_schema(catalog: &Shared) {
    let _guard = catalog.write();
}
