//! # mmg-graph
//!
//! The operator-level intermediate representation shared by both execution
//! planes:
//!
//! * Each [`Op`] knows its FLOPs, parameter count, output size, and
//!   operator [`OpCategory`] (the buckets of the paper's Fig. 6 breakdown).
//! * [`lower::lower`] turns an operator into the GPU kernels it launches
//!   (`mmg-kernels` descriptors), respecting the configured
//!   [`AttnImpl`](mmg_attn::AttnImpl) — baseline attention becomes
//!   GEMM + softmax + GEMM with the score matrix streamed through HBM,
//!   flash attention becomes one fused kernel with tile-resident scores.
//! * [`numeric`] executes a subset of operators with real `f32` math at
//!   reduced sizes, validating shapes and semantics.
//!
//! A [`Graph`] is an ordered list of annotated operators — the same
//! sequential-stream model PyTorch inference has on a single GPU.

#![deny(missing_docs)]

mod category;
mod graph;
pub mod lower;
pub mod memory;
pub mod numeric;
mod op;
pub mod optimize;

pub use category::OpCategory;
pub use graph::{shared_path, Graph, Node};
pub use op::{ActivationKind, AttnKind, Op};
pub use optimize::{ElemWidth, OptConfig, OptStats};
