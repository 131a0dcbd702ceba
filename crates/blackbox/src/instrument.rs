//! Invocation counting.
//!
//! "The primary bottleneck in this context is the repeated (and potentially
//! very costly) Monte Carlo estimation of query outputs …, largely due to
//! the expensive invocation of VG-Functions" (paper §1). Invocation counts
//! are therefore the hardware-independent cost metric this reproduction
//! reports next to wall-clock time.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use jigsaw_prng::{Seed, Worlds};

use crate::function::{BlackBox, MarkovModel};

/// A cloneable handle onto a shared invocation counter.
#[derive(Debug, Clone, Default)]
pub struct InvocationCounter {
    count: Arc<AtomicU64>,
}

impl InvocationCounter {
    /// A fresh counter at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current count.
    pub fn get(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Reset to zero (e.g. between benchmark phases).
    pub fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
    }

    /// Record one invocation.
    #[inline]
    pub fn bump(&self) {
        self.bump_by(1);
    }

    /// Record `n` invocations (one batched call over `n` seeds).
    #[inline]
    pub fn bump_by(&self, n: u64) {
        self.count.fetch_add(n, Ordering::Relaxed);
    }
}

/// A [`BlackBox`] wrapper that counts invocations: one per `eval`, and
/// `worlds.len()` per [`BlackBox::eval_seeds`] — a batched call still
/// evaluates the function once per seed, so counts do not depend on which
/// form a caller used.
pub struct Counted<B> {
    inner: B,
    counter: InvocationCounter,
}

impl<B: BlackBox> Counted<B> {
    /// Wrap `inner`, counting into a fresh counter.
    pub fn new(inner: B) -> Self {
        Counted { inner, counter: InvocationCounter::new() }
    }

    /// Wrap `inner`, counting into an existing counter (lets several models
    /// share one total).
    pub fn with_counter(inner: B, counter: InvocationCounter) -> Self {
        Counted { inner, counter }
    }

    /// Handle to the counter.
    pub fn counter(&self) -> InvocationCounter {
        self.counter.clone()
    }

    /// The wrapped model.
    pub fn inner(&self) -> &B {
        &self.inner
    }
}

impl<B: BlackBox> BlackBox for Counted<B> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn arity(&self) -> usize {
        self.inner.arity()
    }
    #[inline]
    fn eval(&self, params: &[f64], seed: Seed) -> f64 {
        self.counter.bump();
        self.inner.eval(params, seed)
    }
    fn eval_seeds(&self, params: &[f64], worlds: Worlds<'_>, out: &mut [f64]) {
        self.counter.bump_by(worlds.len() as u64);
        self.inner.eval_seeds(params, worlds, out)
    }
}

/// A [`MarkovModel`] wrapper that counts `output` invocations (chain
/// transitions are bookkeeping, not VG-function calls, and are not counted).
pub struct CountedMarkov<M> {
    inner: M,
    counter: InvocationCounter,
}

impl<M: MarkovModel> CountedMarkov<M> {
    /// Wrap `inner`, counting into a fresh counter.
    pub fn new(inner: M) -> Self {
        CountedMarkov { inner, counter: InvocationCounter::new() }
    }

    /// Handle to the counter.
    pub fn counter(&self) -> InvocationCounter {
        self.counter.clone()
    }
}

impl<M: MarkovModel> MarkovModel for CountedMarkov<M> {
    fn name(&self) -> &str {
        self.inner.name()
    }
    fn initial_chain(&self) -> f64 {
        self.inner.initial_chain()
    }
    #[inline]
    fn output(&self, step: usize, chain: f64, seed: Seed) -> f64 {
        self.counter.bump();
        self.inner.output(step, chain, seed)
    }
    #[inline]
    fn next_chain(&self, step: usize, chain: f64, output: f64, seed: Seed) -> f64 {
        self.inner.next_chain(step, chain, output, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::FnBlackBox;

    #[test]
    fn counts_every_eval() {
        let bb = Counted::new(FnBlackBox::new("c", 1, |p: &[f64], _| p[0]));
        let c = bb.counter();
        assert_eq!(c.get(), 0);
        for i in 0..7 {
            let _ = bb.eval(&[i as f64], Seed(0));
        }
        assert_eq!(c.get(), 7);
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn shared_counter_accumulates_across_models() {
        let shared = InvocationCounter::new();
        let a = Counted::with_counter(FnBlackBox::new("a", 1, |p: &[f64], _| p[0]), shared.clone());
        let b = Counted::with_counter(FnBlackBox::new("b", 1, |p: &[f64], _| p[0]), shared.clone());
        let _ = a.eval(&[1.0], Seed(0));
        let _ = b.eval(&[1.0], Seed(0));
        let _ = b.eval(&[1.0], Seed(0));
        assert_eq!(shared.get(), 3);
    }

    #[test]
    fn counted_preserves_semantics() {
        let bb = Counted::new(FnBlackBox::new("double", 1, |p: &[f64], _| p[0] * 2.0));
        assert_eq!(bb.eval(&[21.0], Seed(5)), 42.0);
        assert_eq!(bb.name(), "double");
        assert_eq!(bb.arity(), 1);
    }
}
