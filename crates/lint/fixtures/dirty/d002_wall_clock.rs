//! D002 dirty fixture: wall-clock reads with no pragma saying why
//! (linted as if at `crates/sim-core/src/...`).

use std::time::{Instant, SystemTime};

pub fn stamp() -> (Instant, SystemTime) {
    let mono = Instant::now();
    let wall = SystemTime::now();
    (mono, wall)
}
