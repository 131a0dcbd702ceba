//! Shared fixtures of the server integration tests: a black box that a test
//! can hold shut, so "while a `SWEEP` is in flight" is a state the test
//! controls rather than a window it hopes to hit.
#![allow(dead_code)]

use std::sync::{Arc, Condvar, Mutex};

use jigsaw::blackbox::models::SynthBasis;
use jigsaw::blackbox::{BlackBox, FnBlackBox};
use jigsaw::pdb::Catalog;

/// The gated scenario: 40 points over `Gated`, one output column.
pub const GATED_SRC: &str = "DECLARE PARAMETER @p AS RANGE 0 TO 39 STEP BY 1; \
     SELECT Gated(@p) AS out INTO results;";
/// An ungated scenario of the same shape (the default catalog's `Synth8`).
pub const FREE_SRC: &str = "DECLARE PARAMETER @p AS RANGE 0 TO 39 STEP BY 1; \
     SELECT Synth8(@p) AS out INTO results;";
pub const POINTS: usize = 40;

#[derive(Default)]
struct GateState {
    open: bool,
    /// Evaluations that have arrived at a shut gate since it was last shut.
    held: usize,
}

/// A gate every evaluation of the `Gated` model passes through. While shut,
/// evaluations block at it (whichever thread they run on) and count
/// themselves, so a test can wait until work is provably stuck mid-verb.
#[derive(Default)]
pub struct Gate {
    state: Mutex<GateState>,
    changed: Condvar,
}

impl Gate {
    pub fn new_open() -> Arc<Gate> {
        let gate = Arc::new(Gate::default());
        gate.open();
        gate
    }

    pub fn new_shut() -> Arc<Gate> {
        Arc::new(Gate::default())
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, GateState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Let everything through, now and until [`Gate::shut`].
    pub fn open(&self) {
        self.lock().open = true;
        self.changed.notify_all();
    }

    pub fn shut(&self) {
        let mut state = self.lock();
        state.open = false;
        state.held = 0;
    }

    /// Block until at least one evaluation is held at the shut gate.
    pub fn wait_until_held(&self) {
        let mut state = self.lock();
        while state.held == 0 {
            state = self.changed.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }

    fn pass(&self) {
        let mut state = self.lock();
        if !state.open {
            state.held += 1;
            self.changed.notify_all();
            while !state.open {
                state = self.changed.wait(state).unwrap_or_else(|e| e.into_inner());
            }
        }
    }
}

/// The default catalog plus `Gated(p)`: `SynthBasis(8)` behind `gate`.
pub fn gated_catalog(gate: &Arc<Gate>) -> Catalog {
    let mut catalog = jigsaw::server::default_catalog();
    let gate = Arc::clone(gate);
    let model = SynthBasis::new(8);
    catalog.add_function(Arc::new(FnBlackBox::new("Gated", 1, move |p: &[f64], seed| {
        gate.pass();
        model.eval(p, seed)
    })));
    catalog
}

/// The integer value of an exposition series, matched on the full
/// `name{labels}` prefix (exact, not substring — `foo` must not match
/// `foo_total`).
pub fn series(text: &str, series: &str) -> Option<i128> {
    text.lines().find_map(|line| {
        let (name, value) = line.rsplit_once(' ')?;
        (name == series).then(|| value.parse().expect("series value parses"))
    })
}
