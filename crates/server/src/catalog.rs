//! The server's model catalog.
//!
//! Black-box models are native code, so they cannot travel over the wire;
//! a server instance exposes a fixed, named catalog and clients reference
//! its functions from their scenario scripts. The default catalog carries
//! the paper's models; embedders pass their own [`Catalog`] to
//! [`ServerBuilder::catalog`](crate::ServerBuilder::catalog) for custom
//! workloads.

use std::sync::Arc;

use jigsaw_blackbox::models::{Demand, SynthBasis};
use jigsaw_pdb::Catalog;

/// The paper-model catalog every stock server exposes:
///
/// | Function | Arity | Model |
/// |----------|-------|-------|
/// | `Demand(week, feature)` | 2 | §2's demand model (affine in `week`) |
/// | `DemandEnterprise(week, feature)` | 2 | the enterprise-scaled variant |
/// | `Synth8(p)` | 1 | `SynthBasis` pinned at 8 basis classes |
pub fn default_catalog() -> Catalog {
    let mut catalog = Catalog::new();
    catalog.add_function(Arc::new(Demand::paper()));
    catalog.add_function_as("DemandEnterprise", Arc::new(Demand::enterprise()));
    catalog.add_function_as("Synth8", Arc::new(SynthBasis::new(8)));
    catalog
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_catalog_registers_the_paper_models() {
        let c = default_catalog();
        assert!(c.function("Demand").is_ok());
        assert!(c.function("DemandEnterprise").is_ok());
        assert!(c.function("Synth8").is_ok());
        assert!(c.function("Nope").is_err());
    }
}
