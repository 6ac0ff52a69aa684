//! # shapdb-kc — knowledge compilation to d-DNNF
//!
//! The paper's exact algorithm (§4) runs on *deterministic and decomposable*
//! Boolean circuits. Its implementation compiles the Tseytin CNF of the
//! endogenous lineage into a d-DNNF with the external `c2d` compiler; this
//! crate plays that role from scratch:
//!
//! * [`Ddnnf`] — the compiled representation (NNF arena with decision-∨
//!   nodes), with model counting, weighted model counting (probability), and
//!   structural verification;
//! * [`compile()`](compile()) — the CNF → d-DNNF compiler (unit propagation,
//!   dynamic component decomposition, component caching, VSADS branching)
//!   with cooperative deadline / node budgets so the hybrid engine (§6.3)
//!   can time out. There is one compiler ([`compile_topdown`]); a
//!   [`ComponentCache`] keyed by the canonical residual-component encoding
//!   can optionally be **shared across lineages**
//!   ([`compile_topdown_shared`], [`compile_circuit_topdown`]);
//! * [`project()`](project()) — the auxiliary-variable elimination of Lemma 4.6, turning a
//!   d-DNNF over `vars(C') ∪ Z` into one over `vars(C')` only;
//! * [`compile_circuit()`](compile_circuit) — the full middle path of Figure 3
//!   (circuit → Tseytin → compile → project).

pub mod compile;
pub mod compile_topdown;
pub mod ddnnf;
pub mod nnf_format;
pub mod project;
mod scratch;
pub mod smooth;

pub use compile::{
    compile, compile_circuit, Budget, CircuitCompilation, CompileError, CompileStats,
};
pub use compile_topdown::{
    compile_circuit_topdown, compile_topdown_shared, ComponentCache, ComponentCacheStats,
};
pub use ddnnf::{DNode, Ddnnf, DdnnfBuilder, NodeIdx};
pub use nnf_format::{from_nnf, to_nnf, NnfError};
pub use project::project;
pub use smooth::{count_models_smooth, is_smooth, smooth};
