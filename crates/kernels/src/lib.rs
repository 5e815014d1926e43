//! # mmg-kernels
//!
//! Kernel-level cost models: the layer between operators (`mmg-graph`) and
//! the device timing engine (`mmg-gpu`).
//!
//! Every operator lowers to one or more [`KernelDesc`]s. A descriptor
//! carries the kernel's FLOPs, its HBM traffic, and two *efficiency*
//! factors — the fraction of peak compute / bandwidth the kernel's shape
//! can sustain. Efficiencies come from simple, documented models:
//!
//! * **GEMM** ([`gemm`]): 128×128 output-tile quantization, wave
//!   quantization across SMs, and reduction-depth (`k`) pipeline
//!   efficiency. Small matrices — the decode phase of autoregressive
//!   models, or tiny per-pixel temporal attention — land at a few percent
//!   of peak, exactly the asymmetry Section IV-B of the paper builds on.
//! * **Convolution** ([`conv`]): implicit-GEMM mapping
//!   (`m = N·OH·OW`, `n = C_out`, `k = C_in·KH·KW`) with a small
//!   im2col overhead factor.
//! * **Memory-bound kernels** ([`memory_bound`]): softmax, elementwise,
//!   normalization and copy kernels run at a fixed fraction of peak
//!   bandwidth, degraded when rows are shorter than a cache line or when
//!   the access pattern is strided.
//! * **Access streams** ([`access`]): sampled address traces fed to the
//!   `mmg-gpu` cache simulator to reproduce the paper's Fig. 12 cache
//!   hit-rate comparison between spatial and temporal attention.
//! * **Fused kernels** ([`fuse`]): epilogue-fusion cost composition —
//!   folding a bandwidth-bound follower into its producing GEMM/conv
//!   eliminates the intermediate tensor's HBM round-trip and one launch.

#![deny(missing_docs)]

pub mod access;
pub mod conv;
pub mod fuse;
pub mod gemm;
pub mod memory_bound;

mod desc;

pub use desc::{KernelDesc, KernelKind};
pub use fuse::fuse_epilogue;
