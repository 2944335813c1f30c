//! Golden fixture: analysis works on a what-if copy and publishes no schema.

pub fn analyze(engine: &Engine) {
    let _guard = engine.catalog().write();
}
