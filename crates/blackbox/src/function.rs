//! The black-box function traits.

use jigsaw_prng::{Seed, Worlds};

/// A parameterized stochastic black-box function (a scalar VG-function).
///
/// The engine interacts with implementations *only* through
/// [`eval`](BlackBox::eval) and its batched form
/// [`eval_seeds`](BlackBox::eval_seeds): no continuity, monotonicity, or
/// distributional assumptions are made (paper §1). Determinism contract:
/// `eval(p, σ)` must return the same value for the same `(p, σ)` — all
/// randomness must come from a generator seeded with `σ` (usually via
/// [`jigsaw_prng::Xoshiro256pp::seeded`]).
///
/// ## One call per window of worlds
///
/// MCDB invokes a VG function once per tuple for a whole bundle of Monte
/// Carlo instances; [`eval_seeds`](BlackBox::eval_seeds) is that shape here:
/// one parameter point, a [`Worlds`] window, one call. Its contract is
/// `out[i] == eval(params, worlds.seeds()[i])` **bit for bit**, so a caller
/// may use either form and get the same bytes. The provided method is the
/// per-seed `eval` loop; a model overrides it only to compute the same
/// values faster. `SynthBasis` and `Demand` take their one standard normal
/// per world from [`Worlds::standard_normals`], which copies it from the
/// simulation's [`SeedTable`](jigsaw_prng::SeedTable) when the window lies
/// inside one and runs the staged kernel otherwise. Wrappers — `&B`,
/// `Arc<B>`, [`Counted`](crate::Counted) — forward the window unchanged, so
/// an override is reached through `Arc<dyn BlackBox>` too.
pub trait BlackBox: Send + Sync {
    /// Human-readable name, used in catalogs, plans and reports.
    fn name(&self) -> &str;

    /// Number of parameters the function expects.
    fn arity(&self) -> usize;

    /// Evaluate the function at parameter point `params` under seed `seed`.
    ///
    /// `params.len()` must equal [`arity`](BlackBox::arity); implementations
    /// may assert this.
    fn eval(&self, params: &[f64], seed: Seed) -> f64;

    /// Evaluate at `params` once per world of the window:
    /// `out[i] = eval(params, worlds.seeds()[i])`, bit for bit (see the
    /// trait docs). The default is that loop.
    ///
    /// # Panics
    ///
    /// When the window and `out` differ in length.
    fn eval_seeds(&self, params: &[f64], worlds: Worlds<'_>, out: &mut [f64]) {
        assert_eq!(worlds.len(), out.len(), "one output per seed");
        for (o, &seed) in out.iter_mut().zip(worlds.seeds()) {
            *o = self.eval(params, seed);
        }
    }
}

/// Blanket implementation so engines can hold `Box<dyn BlackBox>` behind
/// shared references.
impl<B: BlackBox + ?Sized> BlackBox for &B {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn arity(&self) -> usize {
        (**self).arity()
    }
    fn eval(&self, params: &[f64], seed: Seed) -> f64 {
        (**self).eval(params, seed)
    }
    fn eval_seeds(&self, params: &[f64], worlds: Worlds<'_>, out: &mut [f64]) {
        (**self).eval_seeds(params, worlds, out)
    }
}

impl<B: BlackBox + ?Sized> BlackBox for std::sync::Arc<B> {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn arity(&self) -> usize {
        (**self).arity()
    }
    fn eval(&self, params: &[f64], seed: Seed) -> f64 {
        (**self).eval(params, seed)
    }
    fn eval_seeds(&self, params: &[f64], worlds: Worlds<'_>, out: &mut [f64]) {
        (**self).eval_seeds(params, worlds, out)
    }
}

/// A black-box model evaluated as a Markov process (paper §4).
///
/// Each sample instance carries a scalar *chain state* (the paper's `CHAIN`
/// parameter — e.g. a feature-release week driven by past demand). At step
/// `t` the model produces an output given the chain state, and the chain
/// state then evolves as a function of that output.
///
/// Seeds are derived statelessly per `(instance, step)` by the engine
/// ([`jigsaw_prng::stream_seed`]) so that evaluation order cannot perturb
/// the randomness — a requirement for Markov jumps to be comparable with
/// stepwise simulation.
pub trait MarkovModel: Send + Sync {
    /// Human-readable name.
    fn name(&self) -> &str;

    /// The chain state every instance starts from (`INITIAL VALUE` in the
    /// query language).
    fn initial_chain(&self) -> f64;

    /// The model output at `step` for an instance with chain state `chain`.
    fn output(&self, step: usize, chain: f64, seed: Seed) -> f64;

    /// Evolve the chain state after observing `output` at `step`.
    ///
    /// Receives its own seed (derived from the step seed) so that stochastic
    /// transitions (e.g. `MarkovBranch`) stay reproducible.
    fn next_chain(&self, step: usize, chain: f64, output: f64, seed: Seed) -> f64;
}

impl<M: MarkovModel + ?Sized> MarkovModel for &M {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn initial_chain(&self) -> f64 {
        (**self).initial_chain()
    }
    fn output(&self, step: usize, chain: f64, seed: Seed) -> f64 {
        (**self).output(step, chain, seed)
    }
    fn next_chain(&self, step: usize, chain: f64, output: f64, seed: Seed) -> f64 {
        (**self).next_chain(step, chain, output, seed)
    }
}

impl<M: MarkovModel + ?Sized> MarkovModel for std::sync::Arc<M> {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn initial_chain(&self) -> f64 {
        (**self).initial_chain()
    }
    fn output(&self, step: usize, chain: f64, seed: Seed) -> f64 {
        (**self).output(step, chain, seed)
    }
    fn next_chain(&self, step: usize, chain: f64, output: f64, seed: Seed) -> f64 {
        (**self).next_chain(step, chain, output, seed)
    }
}

/// Adapter exposing a plain closure as a [`BlackBox`] — handy in tests and
/// for users prototyping models inline.
pub struct FnBlackBox<F> {
    name: String,
    arity: usize,
    f: F,
}

impl<F: Fn(&[f64], Seed) -> f64 + Send + Sync> FnBlackBox<F> {
    /// Wrap a closure. The closure must obey the determinism contract.
    pub fn new(name: impl Into<String>, arity: usize, f: F) -> Self {
        FnBlackBox { name: name.into(), arity, f }
    }
}

impl<F: Fn(&[f64], Seed) -> f64 + Send + Sync> BlackBox for FnBlackBox<F> {
    fn name(&self) -> &str {
        &self.name
    }
    fn arity(&self) -> usize {
        self.arity
    }
    fn eval(&self, params: &[f64], seed: Seed) -> f64 {
        assert_eq!(params.len(), self.arity, "{}: arity mismatch", self.name);
        (self.f)(params, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fn_blackbox_delegates() {
        let bb = FnBlackBox::new("sum", 2, |p: &[f64], _s| p[0] + p[1]);
        assert_eq!(bb.name(), "sum");
        assert_eq!(bb.arity(), 2);
        assert_eq!(bb.eval(&[1.0, 2.0], Seed(0)), 3.0);
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn fn_blackbox_checks_arity() {
        let bb = FnBlackBox::new("one", 1, |p: &[f64], _s| p[0]);
        let _ = bb.eval(&[1.0, 2.0], Seed(0));
    }

    /// Counts `eval_seeds` calls, so the forwarding tests can tell an
    /// override reached through a wrapper from the default loop.
    struct Batched(std::sync::atomic::AtomicUsize);

    impl BlackBox for Batched {
        fn name(&self) -> &str {
            "batched"
        }
        fn arity(&self) -> usize {
            0
        }
        fn eval(&self, _: &[f64], seed: Seed) -> f64 {
            seed.0 as f64
        }
        fn eval_seeds(&self, params: &[f64], worlds: Worlds<'_>, out: &mut [f64]) {
            self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            for (o, &s) in out.iter_mut().zip(worlds.seeds()) {
                *o = self.eval(params, s);
            }
        }
    }

    #[test]
    fn wrappers_forward_eval_seeds_to_the_override() {
        let seeds = [Seed(3), Seed(5), Seed(8)];
        let inner = std::sync::Arc::new(Batched(Default::default()));
        let as_dyn: std::sync::Arc<dyn BlackBox> = inner.clone();
        let by_ref: &dyn BlackBox = &*inner;
        let mut out = [0.0; 3];
        as_dyn.eval_seeds(&[], Worlds::from_seeds(&seeds), &mut out);
        (&by_ref).eval_seeds(&[], Worlds::from_seeds(&seeds), &mut out);
        assert_eq!(out, [3.0, 5.0, 8.0]);
        assert_eq!(inner.0.load(std::sync::atomic::Ordering::Relaxed), 2, "one call each");
    }

    #[test]
    #[should_panic(expected = "one output per seed")]
    fn eval_seeds_rejects_mismatched_lengths() {
        let bb = FnBlackBox::new("one", 1, |p: &[f64], _s| p[0]);
        bb.eval_seeds(&[1.0], Worlds::from_seeds(&[Seed(0)]), &mut [0.0, 0.0]);
    }

    #[test]
    fn reference_and_arc_forward() {
        let bb = FnBlackBox::new("id", 1, |p: &[f64], _s| p[0]);
        let r: &dyn BlackBox = &bb;
        assert_eq!((&r).eval(&[5.0], Seed(1)), 5.0);
        let a = std::sync::Arc::new(FnBlackBox::new("id2", 1, |p: &[f64], _s| p[0] * 2.0));
        assert_eq!(a.eval(&[5.0], Seed(1)), 10.0);
        assert_eq!(a.name(), "id2");
    }
}
