//! The library half of `ingot-benchmark`: everything but the command line,
//! so that the integration test can read the same contract and the same JSON
//! the binary does. See `main.rs` for the command surface and
//! `benchmark/README.md` for what is measured and why.

pub mod agree;
pub mod harness;
pub mod json;
pub mod layers;
pub mod measure;
pub mod pin;
pub mod spans;
pub mod spec;
pub mod stats;
pub mod workloads;
pub mod yardstick;

use std::fmt;

/// Why the harness gave up: a message, nothing to match on.
#[derive(Debug)]
pub struct Fail(String);

impl Fail {
    pub fn new(msg: impl Into<String>) -> Fail {
        Fail(msg.into())
    }
}

impl fmt::Display for Fail {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<ingot_common::Error> for Fail {
    fn from(e: ingot_common::Error) -> Fail {
        Fail(e.to_string())
    }
}

impl From<std::io::Error> for Fail {
    fn from(e: std::io::Error) -> Fail {
        Fail(e.to_string())
    }
}
