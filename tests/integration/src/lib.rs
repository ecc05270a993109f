//! Host crate for cross-crate integration tests (see `tests/`), and the
//! frame builders they share.

use bytes::{Bytes, BytesMut};
use fml_sim::framing::prefix_frame_into;
use fml_sim::message::{encode_global_into, encode_update_into};

/// The platform's broadcast of `params` for `round`, as it goes on the
/// wire.
pub fn global_frame(round: u32, params: &[f64]) -> Bytes {
    let mut buf = BytesMut::new();
    encode_global_into(round, params, &mut buf);
    buf.freeze()
}

/// `node`'s upload of `params` for `round`, as it goes on the wire. Round
/// 0 with no parameters is the hello a socket peer opens with.
pub fn update_frame(round: u32, node: u32, params: &[f64]) -> Bytes {
    let mut buf = BytesMut::new();
    encode_update_into(round, node, params, &mut buf);
    buf.freeze()
}

/// `frame` behind its length prefix, as a stream transport writes it.
pub fn prefix_frame(frame: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    prefix_frame_into(frame, &mut out);
    out
}
