//! Platform-aided edge-computing simulator.
//!
//! The paper's system (Figure 1) is a *platform* coordinating a federation
//! of *edge nodes* over a wireless network where "communication cost …
//! is often a significant bottleneck". This crate provides that substrate
//! so the trade-off the theory exposes — more local steps `T0` per round
//! buys fewer communication rounds at the price of a larger convergence
//! floor — can be *measured* rather than asserted:
//!
//! * [`message`] — the wire protocol: length-prefixed binary frames for
//!   model broadcasts and updates, so byte counts are real serialized
//!   sizes, not estimates;
//! * [`codec`] — wire v2 compressed update frames (dense, per-chunk
//!   quantized, top-k sparse) behind an [`UpdateCodec`] seam whose
//!   `none` setting preserves today's bitwise path;
//! * [`framing`] — the stream layer below it: a `u32` length prefix per
//!   frame plus [`FrameBuffer`], the partial-read-hardened incremental
//!   decoder real sockets need;
//! * [`pool`] — pooled frame buffers so steady-state encode/receive
//!   paths recycle storage instead of allocating per hop;
//! * [`network`] — per-link bandwidth/latency/loss models with
//!   retransmission accounting;
//! * [`stats`] — communication and computation meters, and [`energy`]
//!   — their price in joules;
//! * [`config`] and [`adaptive`] — what a simulated run (fixed or
//!   controller-chosen `T0`) is configured with and returns.
//!
//! The simulated round is not here: `fml_runtime::SimRunner` and
//! `fml_runtime::run_adaptive_fedml` drive the platform's round core in
//! virtual time, pricing every frame with these models.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod codec;
pub mod config;
pub mod energy;
pub mod framing;
pub mod message;
pub mod network;
pub mod pool;
pub mod stats;
pub mod trace;

pub use adaptive::{AdaptiveOutput, AdaptiveT0Config};
pub use codec::{
    compressed_frame_len, curve_trailer_len, encode_update_compressed_into, logical_frame_len,
    quant_epsilon, CodecScratch, CompressedView, UpdateCodec, QUANT_CHUNK,
};
pub use config::{EdgeProfile, SimConfig, SimOutput};
pub use energy::{EnergyModel, EnergyStats};
pub use framing::{FrameBuffer, FrameError, LENGTH_PREFIX_LEN, MAX_FRAME_LEN};
pub use message::{
    AdaptFrame, AdaptReject, AdaptRequest, MessageView, RejectReason, SampleKind,
    CURVE_TERMS_LEN, PROTOCOL_VERSION,
};
pub use pool::{FramePool, PoolStats};
pub use network::{LinkModel, Network, IDEAL_BANDWIDTH_BPS};
pub use stats::{CommStats, ComputeStats};
pub use trace::{RoundTrace, TraceLog};
