//! Literal byte pins of every frame kind on the wire.
//!
//! Recorded at the commit *before* the frame header was given one codec
//! (`Header` in `fml_sim::message`), from the seven hand-written
//! encoders that existed then. Round-trip tests pass under a symmetric
//! encoder+parser bug; these do not. Each small frame is pinned as its
//! full hex string, so a failure shows which byte moved; the 600-parameter
//! compressed frames are pinned by length and FNV-1a digest.

use bytes::{BufMut, BytesMut};
use fml_sim::message::{
    encode_adapt_reject_into, encode_adapt_request_into, encode_adapt_response_into,
    encode_global_into, encode_update_into, put_curve_terms,
};
use fml_sim::{
    encode_update_compressed_into, AdaptRequest, CodecScratch, CompressedView, MessageView,
    RejectReason, SampleKind, UpdateCodec,
};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// FNV-1a over the raw bytes — `param_hash`'s constants, byte input.
fn fnv(bytes: &[u8]) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

fn compressed(codec: UpdateCodec, round: u32, node: u32, params: &[f64]) -> BytesMut {
    let mut buf = BytesMut::new();
    encode_update_compressed_into(codec, round, node, params, &mut CodecScratch::new(), &mut buf);
    buf
}

fn request() -> AdaptRequest {
    AdaptRequest {
        req_id: 7,
        node: 3,
        alpha: 0.05,
        steps: 4,
        dim: 2,
        kind: SampleKind::Class,
        xs: vec![0.1, 0.2, 0.3, 0.4],
        ys: vec![0.0, 1.0],
    }
}

#[test]
fn training_frames_are_pinned() {
    const GLOBAL: &str = "8201070000000000000002000000000000000000f83f00000000000004c0";
    const UPDATE: &str = "8202040302012a00000001000000000000000000d03f";

    // The encoders append the frame after whatever the buffer already
    // holds.
    let mut buf = BytesMut::new();
    buf.put_u8(0xaa);
    encode_global_into(7, &[1.5, -2.5], &mut buf);
    assert_eq!(hex(&buf), format!("aa{GLOBAL}"));
    buf.clear();
    encode_update_into(0x0102_0304, 42, &[0.25], &mut buf);
    assert_eq!(hex(&buf), UPDATE);
    buf.clear();
    encode_update_into(0, 5, &[], &mut buf);
    // The hello a socket peer opens with.
    assert_eq!(hex(&buf), "8202000000000500000000000000");
}

#[test]
fn adaptation_frames_are_pinned() {
    const REQUEST: &str = concat!(
        "820307000000030000000b000000",
        "9a9999999999a93f",
        "0000000000001040",
        "0000000000000040",
        "0000000000000040",
        "0000000000000000",
        "9a9999999999b93f9a9999999999c93f333333333333d33f9a9999999999d93f",
        "0000000000000000000000000000f03f",
    );
    const RESPONSE: &str = "82042a0000000b00000002000000000000000000f83f0000000000001000";
    const REJECT: &str = "8205090000000300000000000000";
    assert_eq!(hex(&request().encode()), REQUEST);

    let mut buf = BytesMut::new();
    encode_adapt_request_into(&request(), &mut buf);
    assert_eq!(hex(&buf), REQUEST);
    buf.clear();
    encode_adapt_response_into(11, 42, &[1.5, f64::MIN_POSITIVE], &mut buf);
    assert_eq!(hex(&buf), RESPONSE);
    buf.clear();
    encode_adapt_reject_into(9, RejectReason::BadRequest, &mut buf);
    assert_eq!(hex(&buf), REJECT);

    let value_kind = AdaptRequest {
        kind: SampleKind::Value,
        ..request()
    };
    assert_eq!(fnv(&value_kind.encode()), "b04f9c38ea1739cd");
}

#[test]
fn compressed_frames_are_pinned() {
    let params = [0.1, -5.0, 0.2, 4.0, -0.3];
    for (codec, pin) in [
        (
            UpdateCodec::None,
            "82020900000004000000050000009a9999999999b93f00000000000014c09a9999999999c93f0000000000001040333333333333d3bf",
        ),
        (
            UpdateCodec::Dense,
            "820609000000040000000500000001000000000000009a9999999999b93f00000000000014c09a9999999999c93f0000000000001040333333333333d3bf",
        ),
        (
            UpdateCodec::Quant { bits: 8 },
            "820609000000040000000500000002080001000000009190103d0000a0c0900093ff85",
        ),
        (
            UpdateCodec::Quant { bits: 16 },
            "82060900000004000000050000000210000100000000900010390000a0c011910000e993ffffb085",
        ),
        (
            UpdateCodec::TopK { k: 2 },
            "82060900000004000000050000000300000002000000010000000300000000000000000014c00000000000001040",
        ),
    ] {
        assert_eq!(hex(&compressed(codec, 9, 4, &params)), pin, "{codec}");
    }

    // Three quantization chunks (256 + 256 + 88 values), one holding a
    // non-finite value.
    let mut long: Vec<f64> = (0..600).map(|i| (i as f64 * 0.37).sin() * 3.0).collect();
    long[300] = f64::INFINITY;
    for (codec, len, digest) in [
        (UpdateCodec::Quant { bits: 8 }, 646, "df198efbc0c23d0d"),
        (UpdateCodec::Quant { bits: 16 }, 1246, "cf3415b4168cba10"),
        (UpdateCodec::TopK { k: 40 }, 502, "31f3c89e1d31b8d2"),
        (UpdateCodec::Dense, 4822, "2f4e9523240de95d"),
    ] {
        let frame = compressed(codec, 2, 5, &long);
        assert_eq!((frame.len(), fnv(&frame).as_str()), (len, digest), "{codec}");
    }
}

/// An update frame that carries its node's curve terms: the tag byte's
/// `0x40` bit set, then the unflagged frame's every other byte, then
/// the query and support losses as two little-endian `f64`s.
#[test]
fn flagged_update_frames_are_pinned() {
    const TRAILER: &str = "000000000000f83f00000000000004c0";
    let terms = (1.5, -2.5);

    let mut buf = BytesMut::new();
    encode_update_into(0x0102_0304, 42, &[0.25], &mut buf);
    put_curve_terms(&mut buf, terms);
    assert_eq!(
        hex(&buf),
        format!("8242040302012a00000001000000000000000000d03f{TRAILER}")
    );
    let view = MessageView::parse(&buf).unwrap();
    assert!(view.is_update());
    assert_eq!(view.params_iter().collect::<Vec<_>>(), vec![0.25]);
    assert_eq!(view.curve_terms(), Some(terms));

    let params = [0.1, -5.0, 0.2, 4.0, -0.3];
    let mut quant = compressed(UpdateCodec::Quant { bits: 8 }, 9, 4, &params);
    put_curve_terms(&mut quant, terms);
    assert_eq!(
        hex(&quant),
        format!("824609000000040000000500000002080001000000009190103d0000a0c0900093ff85{TRAILER}")
    );
    let view = CompressedView::parse(&quant).unwrap();
    assert_eq!((view.round(), view.node(), view.len()), (9, 4, 5));
    assert_eq!(view.curve_terms(), Some(terms));
}
