//! Windows of worlds, and the table that lets them share their draws.
//!
//! Under common random numbers (paper §3.1) world `k` runs under the same
//! seed `σ_k` at every parameter point, so anything that depends on `σ_k`
//! alone is the same at every point. A [`SeedTable`] stores two such
//! things once per simulation: the seeds `σ_0 … σ_{L−1}` and each seed's
//! standard normal, [`Normal::standard`] on a generator seeded with it.
//! Models whose only per-world randomness is that one draw (`SynthBasis`,
//! `Demand`) then read it instead of drawing it again at every point.
//!
//! A [`Worlds`] is what a batched black-box call receives: a window's
//! seeds, plus their normals when the window lies inside a table. Worlds
//! outside any table (past its end, or a call site's derived seeds) come
//! as a seed-only window, and [`Worlds::standard_normals`] draws them
//! with the staged kernel. Either way each normal is bit-identical to the
//! per-seed draw.

use crate::dist::Normal;
use crate::{Seed, SeedSet};

/// The first `L` seeds of a [`SeedSet`] and each seed's standard normal,
/// drawn once when the table is built.
#[derive(Debug, Clone)]
pub struct SeedTable {
    seeds: Box<[Seed]>,
    /// `normals[k]` is [`Normal::standard`] seeded with `seeds[k]`.
    normals: Box<[f64]>,
}

impl SeedTable {
    /// Tabulate `σ_0 … σ_{len−1}` of `set` and their standard normals.
    pub fn new(set: SeedSet, len: usize) -> Self {
        let seeds: Box<[Seed]> = (0..len).map(|k| set.seed(k)).collect();
        let mut normals = vec![0.0; len].into_boxed_slice();
        Normal::standard_seeded(&seeds, &mut normals);
        SeedTable { seeds, normals }
    }

    /// Worlds `start .. start + count`, with their normals.
    ///
    /// # Panics
    ///
    /// When the window reaches past the table.
    pub fn window(&self, start: usize, count: usize) -> Worlds<'_> {
        let range = start..start + count;
        Worlds { seeds: &self.seeds[range.clone()], normals: Some(&self.normals[range]) }
    }
}

/// A window of worlds: one seed per world, plus each seed's standard
/// normal when the window came from a [`SeedTable`].
#[derive(Debug, Clone, Copy)]
pub struct Worlds<'a> {
    seeds: &'a [Seed],
    normals: Option<&'a [f64]>,
}

impl<'a> Worlds<'a> {
    /// A window of seeds with no tabulated normals.
    pub fn from_seeds(seeds: &'a [Seed]) -> Self {
        Worlds { seeds, normals: None }
    }

    /// Number of worlds in the window.
    pub fn len(&self) -> usize {
        self.seeds.len()
    }

    /// True when the window holds no worlds.
    pub fn is_empty(&self) -> bool {
        self.seeds.is_empty()
    }

    /// The window's seeds, one per world.
    pub fn seeds(&self) -> &'a [Seed] {
        self.seeds
    }

    /// True when the window's normals come from a table.
    pub fn is_tabled(&self) -> bool {
        self.normals.is_some()
    }

    /// One standard normal per world: `out[i]` is [`Normal::standard`]
    /// seeded with `seeds()[i]`, bit for bit — copied from the table, or
    /// drawn by [`Normal::standard_seeded`] for a seed-only window.
    ///
    /// # Panics
    ///
    /// When `out` and the window differ in length.
    pub fn standard_normals(&self, out: &mut [f64]) {
        match self.normals {
            Some(normals) => {
                assert_eq!(normals.len(), out.len(), "one output per seed");
                out.copy_from_slice(normals);
            }
            None => Normal::standard_seeded(self.seeds, out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Xoshiro256pp;

    #[test]
    fn every_tabled_normal_is_the_standard_draw_of_its_seed() {
        let set = SeedSet::new(2011);
        let table = SeedTable::new(set, 1024);
        let all = table.window(0, 1024);
        let mut normals = vec![f64::NAN; 1024];
        all.standard_normals(&mut normals);
        for (k, (&seed, &z)) in all.seeds().iter().zip(&normals).enumerate() {
            assert_eq!(seed, set.seed(k), "seed {k}");
            let want = Normal::standard(&mut Xoshiro256pp::seeded(seed));
            assert_eq!(z.to_bits(), want.to_bits(), "normal {k}");
        }
    }

    #[test]
    fn a_table_window_and_a_seed_only_window_give_the_same_bits() {
        let table = SeedTable::new(SeedSet::new(5), 300);
        let mut whole = vec![f64::NAN; 300];
        table.window(0, 300).standard_normals(&mut whole);
        for (start, count) in [(0, 0), (0, 1), (7, 63), (0, 64), (100, 65), (0, 300), (299, 1)] {
            let tabled = table.window(start, count);
            let plain = Worlds::from_seeds(tabled.seeds());
            assert!(tabled.is_tabled() && !plain.is_tabled());
            assert_eq!(tabled.len(), count);
            let (mut a, mut b) = (vec![f64::NAN; count], vec![f64::NAN; count]);
            tabled.standard_normals(&mut a);
            plain.standard_normals(&mut b);
            let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&a), bits(&b), "window {start}+{count}");
            assert_eq!(bits(&a), bits(&whole[start..start + count]));
        }
    }

    #[test]
    #[should_panic]
    fn a_window_past_the_table_is_refused() {
        let _ = SeedTable::new(SeedSet::new(1), 10).window(5, 6);
    }

    #[test]
    #[should_panic(expected = "one output per seed")]
    fn a_short_output_is_refused_from_a_table_too() {
        SeedTable::new(SeedSet::new(1), 4).window(0, 4).standard_normals(&mut [0.0; 3]);
    }
}
