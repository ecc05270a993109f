//! Compressed model-update frames.
//!
//! Every round of the federation ships one dense `ModelUpdate` frame
//! per source node — `8 · param_len` payload bytes on the uplink, the
//! direction the paper's platform pays for. FedMeta-style systems show
//! federated meta-learning tolerates aggressive update compression, so
//! this module adds a codec seam in front of the update encoder:
//!
//! * [`UpdateCodec::None`] — bitwise-identical to today's tag-2 frames
//!   ([`encode_update_into`]); the conformance-pinned default.
//! * [`UpdateCodec::Dense`] — the new tag-6 frame envelope with an
//!   uncompressed `f64` payload (isolates the envelope cost).
//! * [`UpdateCodec::Quant`] — per-chunk affine quantization to `u8` or
//!   `u16` with an `f32` scale/offset header per chunk; reconstruction
//!   error is bounded by [`quant_epsilon`].
//! * [`UpdateCodec::TopK`] — the `k` largest-magnitude entries as a
//!   sorted `u32` index table plus exact `f64` values; everything else
//!   decodes as zero (callers keep the dropped mass in an
//!   error-feedback residual).
//!
//! # Wire layout (tag 6)
//!
//! The shared frame header (DESIGN.md "Wire frames"; read and written
//! only by `message::Header` / `put_header`) is followed by an 8-byte
//! codec subheader and the scheme's payload:
//!
//! ```text
//! [ scheme:u8 ][ meta_a:u8 ][ meta_b:u16 ][ meta_c:u32 ][ scheme payload ]
//! ```
//!
//! The header's `len` is the *logical* parameter count — what the frame
//! decodes to — regardless of how many physical payload bytes follow.
//! The subheader fields are scheme-specific (`meta_a` = quant bits,
//! `meta_b` = quant chunk size, `meta_c` = top-k entry count); unused
//! slots must be zero, so every value has exactly one canonical
//! encoding. Scheme payloads:
//!
//! | scheme | payload |
//! |---|---|
//! | 1 dense | `len × f64` |
//! | 2 quant | per chunk: `[scale:f32][offset:f32][q × u8/u16]` |
//! | 3 topk  | `k × u32` strictly-ascending indices, then `k × f64` values |
//!
//! Tag 6 is rejected by both [`MessageView`](crate::MessageView) and
//! [`AdaptFrame`](crate::AdaptFrame) (and [`CompressedView`] rejects
//! tags 1–5 symmetrically), so compressed traffic cannot cross-parse
//! into the training or serving planes.

use bytes::{Buf, BufMut, BytesMut};

use crate::message::{
    encode_update_into, encoded_frame_len, expect_len, put_f64s, put_header, DecodeError, F64s,
    Header, CURVE_TERMS_LEN, TAG_COMPRESSED, TAG_UPDATE,
};

/// Codec subheader size in bytes (scheme + meta_a + meta_b + meta_c).
const CODEC_SUBHEADER_LEN: usize = 1 + 1 + 2 + 4;

/// Parameters per quantization chunk emitted by
/// [`encode_update_compressed_into`]. The wire carries the chunk size,
/// so decoders accept any positive value.
pub const QUANT_CHUNK: usize = 256;

const SCHEME_DENSE: u8 = 1;
const SCHEME_QUANT: u8 = 2;
const SCHEME_TOPK: u8 = 3;

/// Per-chunk quantization header size: `f32` scale + `f32` offset.
const QUANT_CHUNK_HEADER: usize = 4 + 4;

/// How a node's model update is encoded on the uplink.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateCodec {
    /// Today's tag-2 dense frame, byte-for-byte — the seam's identity
    /// element, conformance-pinned to the pre-codec wire.
    None,
    /// Tag-6 envelope with an uncompressed `f64` payload.
    Dense,
    /// Per-chunk affine quantization to `bits` ∈ {8, 16} integers.
    Quant {
        /// Bits per quantized value (8 or 16).
        bits: u8,
    },
    /// Keep only the `k` largest-magnitude entries (exact values).
    TopK {
        /// Number of entries to keep (clamped to the parameter count).
        k: usize,
    },
}

impl UpdateCodec {
    /// Whether this codec emits today's tag-2 frames unchanged.
    pub fn is_none(self) -> bool {
        self == UpdateCodec::None
    }

    /// Whether the encode path should run error feedback: only top-k
    /// drops update mass, so only top-k carries a residual.
    pub fn wants_feedback(self) -> bool {
        matches!(self, UpdateCodec::TopK { .. })
    }

    /// The one statement of which codecs can go on the wire: `Quant`
    /// bits are 8 or 16, and `TopK` keeps at least one entry (zero
    /// would ship empty updates forever).
    ///
    /// # Errors
    ///
    /// Names the violated rule.
    pub fn validate(self) -> Result<(), String> {
        match self {
            UpdateCodec::Quant { bits } if bits != 8 && bits != 16 => {
                Err("quant bits must be 8 or 16".into())
            }
            UpdateCodec::TopK { k: 0 } => Err("top-k must keep at least one entry".into()),
            _ => Ok(()),
        }
    }
}

impl std::fmt::Display for UpdateCodec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UpdateCodec::None => write!(f, "none"),
            UpdateCodec::Dense => write!(f, "dense"),
            UpdateCodec::Quant { bits } => write!(f, "quant{bits}"),
            UpdateCodec::TopK { k } => write!(f, "topk{k}"),
        }
    }
}

/// Serialized size in bytes of a compressed-update frame carrying
/// `param_count` parameters under `codec` — the exact frame length,
/// computable up front so pooled buffers can be acquired at capacity.
pub fn compressed_frame_len(codec: UpdateCodec, param_count: usize) -> usize {
    let envelope = encoded_frame_len(0) + CODEC_SUBHEADER_LEN;
    match codec {
        UpdateCodec::None => encoded_frame_len(param_count),
        UpdateCodec::Dense => envelope + 8 * param_count,
        UpdateCodec::Quant { bits } => {
            let chunks = param_count.div_ceil(QUANT_CHUNK);
            let per_value = if bits == 16 { 2 } else { 1 };
            envelope + chunks * QUANT_CHUNK_HEADER + per_value * param_count
        }
        UpdateCodec::TopK { k } => envelope + 12 * k.min(param_count),
    }
}

/// Appends an update frame encoded under `codec` to `buf`.
///
/// [`UpdateCodec::None`] delegates to [`encode_update_into`] and emits
/// a byte-identical tag-2 frame; every other codec emits a tag-6
/// [`CompressedView`]-parseable frame. `scratch` holds the top-k index
/// selection between calls so steady-state encoding allocates nothing.
///
/// # Panics
///
/// Panics if `params.len()` or a top-k `k` exceeds `u32::MAX` — such a
/// frame could not be described by the wire header.
pub fn encode_update_compressed_into(
    codec: UpdateCodec,
    round: u32,
    node: u32,
    params: &[f64],
    scratch: &mut CodecScratch,
    buf: &mut BytesMut,
) {
    if codec.is_none() {
        encode_update_into(round, node, params, buf);
        return;
    }
    buf.reserve(compressed_frame_len(codec, params.len()));
    put_header(buf, TAG_COMPRESSED, round, node, params.len());
    match codec {
        UpdateCodec::None => unreachable!("handled above"),
        UpdateCodec::Dense => {
            put_subheader(buf, SCHEME_DENSE, 0, 0, 0);
            put_f64s(buf, params);
        }
        UpdateCodec::Quant { bits } => {
            let bits = if bits == 16 { 16 } else { 8 };
            put_subheader(buf, SCHEME_QUANT, bits, QUANT_CHUNK as u16, 0);
            for chunk in params.chunks(QUANT_CHUNK) {
                encode_quant_chunk(chunk, bits, buf);
            }
        }
        UpdateCodec::TopK { k } => {
            let kept = select_topk(params, k, &mut scratch.topk_indices);
            let k32 = u32::try_from(kept).expect("k fits the wire header");
            put_subheader(buf, SCHEME_TOPK, 0, 0, k32);
            for &i in &scratch.topk_indices[..kept] {
                buf.put_u32_le(i);
            }
            for &i in &scratch.topk_indices[..kept] {
                buf.put_f64_le(params[i as usize]);
            }
        }
    }
}

/// Reusable encode-side scratch (top-k index selection). One per
/// worker thread; contents carry no state between frames.
#[derive(Debug, Default)]
pub struct CodecScratch {
    topk_indices: Vec<u32>,
}

impl CodecScratch {
    /// A fresh, empty scratch.
    pub fn new() -> Self {
        Self::default()
    }
}

fn put_subheader(buf: &mut BytesMut, scheme: u8, meta_a: u8, meta_b: u16, meta_c: u32) {
    buf.put_u8(scheme);
    buf.put_u8(meta_a);
    buf.put_u16_le(meta_b);
    buf.put_u32_le(meta_c);
}

/// Quantizes one chunk of at most [`QUANT_CHUNK`] values:
/// `[scale:f32][offset:f32]` then one integer per value. The encoder
/// rounds scale and offset through `f32` *before* quantizing, so encode
/// and decode use bit-identical constants and the reconstruction error
/// stays within [`quant_epsilon`]. Non-finite inputs (corrupt-fault
/// debris) clamp to the chunk's finite range.
///
/// The block loops emit the scalar encoder's bytes: the lane-order range
/// scan rescans in order when an extreme is ±0 or ±inf, and clamping to
/// the integer bounds before rounding changes no result (DESIGN.md,
/// "Update compression architecture").
fn encode_quant_chunk(chunk: &[f64], bits: u8, buf: &mut BytesMut) {
    let qmax = ((1u64 << bits) - 1) as f64;
    let (lo, hi) = quant_range(chunk);
    let offset = lo as f32;
    let scale = (((hi - lo) / qmax) as f32).max(0.0);
    buf.put_f32_le(scale);
    buf.put_f32_le(offset);
    let o = offset as f64;
    let s = scale as f64;
    let width = if bits == 16 { 2 } else { 1 };
    let mut block = [0u8; 2 * QUANT_CHUNK];
    let block = &mut block[..width * chunk.len()];
    if s > 0.0 {
        let mut ys = [0.0f64; QUANT_CHUNK];
        let ys = &mut ys[..chunk.len()];
        for (y, &v) in ys.iter_mut().zip(chunk) {
            // NaN and −inf fail the first test and become `lo`; +inf
            // fails the second and becomes `hi`.
            let v = if v >= lo { v } else { lo };
            let v = if v <= hi { v } else { hi };
            *y = ((v - o) / s).clamp(0.0, qmax);
        }
        if bits == 16 {
            for (q, &y) in block.chunks_exact_mut(2).zip(ys.iter()) {
                q.copy_from_slice(&(round_half_away(y) as u16).to_le_bytes());
            }
        } else {
            for (q, &y) in block.iter_mut().zip(ys.iter()) {
                *q = round_half_away(y) as u8;
            }
        }
    }
    buf.put_slice(block);
}

/// `y.round()` for `y` in `[0, 65535]` or NaN (→ 0), without the libm
/// call: `y − t` is exact, so the half test sees the true fraction.
fn round_half_away(y: f64) -> i32 {
    let t = y as i32;
    t + (y - t as f64 >= 0.5) as i32
}

/// The chunk's finite range, `(0, 0)` when it has no finite value.
///
/// A four-lane `<`/`>` reduction skips NaN and is exact whenever both
/// extremes are finite and non-zero, since equal non-zero doubles have
/// equal bits. A ±0 extreme (whose sign lane order picks) or a ±inf one
/// (which the finite filter would drop) takes the ordered scan instead.
fn quant_range(chunk: &[f64]) -> (f64, f64) {
    let mut lo = [f64::INFINITY; 4];
    let mut hi = [f64::NEG_INFINITY; 4];
    let mut quads = chunk.chunks_exact(4);
    for quad in &mut quads {
        for lane in 0..4 {
            let v = quad[lane];
            lo[lane] = if v < lo[lane] { v } else { lo[lane] };
            hi[lane] = if v > hi[lane] { v } else { hi[lane] };
        }
    }
    for &v in quads.remainder() {
        lo[0] = if v < lo[0] { v } else { lo[0] };
        hi[0] = if v > hi[0] { v } else { hi[0] };
    }
    let lo = lo
        .into_iter()
        .fold(f64::INFINITY, |a, v| if v < a { v } else { a });
    let hi = hi
        .into_iter()
        .fold(f64::NEG_INFINITY, |a, v| if v > a { v } else { a });
    let exact = |x: f64| x != 0.0 && x.is_finite();
    if exact(lo) && exact(hi) {
        (lo, hi)
    } else {
        ordered_finite_range(chunk)
    }
}

/// [`quant_range`] by the sequential `is_finite` + `f64::min`/`max`
/// scan, which fixes the sign of a zero extreme.
fn ordered_finite_range(chunk: &[f64]) -> (f64, f64) {
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for &v in chunk {
        if v.is_finite() {
            lo = lo.min(v);
            hi = hi.max(v);
        }
    }
    if lo > hi {
        (0.0, 0.0)
    } else {
        (lo, hi)
    }
}

/// Advertised worst-case reconstruction error of [`UpdateCodec::Quant`]
/// for a chunk whose finite values span `[lo, hi]`: half a quantization
/// step plus the `f32` rounding of the chunk header. The codec
/// proptests hold every decoded value to this bound.
pub fn quant_epsilon(lo: f64, hi: f64, bits: u8) -> f64 {
    let qmax = ((1u64 << bits) - 1) as f64;
    let span = (hi - lo).max(0.0);
    let scale = ((span / qmax) as f32) as f64;
    // If the f32 scale underflowed to zero the whole chunk collapses
    // onto the offset, so the span itself is the honest bound.
    let step = if span > 0.0 && scale == 0.0 {
        span
    } else {
        0.5 * scale
    };
    step + 4.0 * f32::EPSILON as f64 * (lo.abs() + hi.abs() + span)
}

/// Picks the `k` largest-|v| indices (ties broken by lower index) and
/// leaves them **sorted ascending** in `indices[..kept]`. Returns the
/// number kept. Deterministic: the comparator is a strict total order,
/// so the selected set is independent of `select_nth`'s pivot choices.
fn select_topk(params: &[f64], k: usize, indices: &mut Vec<u32>) -> usize {
    indices.clear();
    indices.extend(0..params.len() as u32);
    let kept = k.min(params.len());
    if kept == 0 {
        return 0;
    }
    if kept < params.len() {
        let by_magnitude = |a: &u32, b: &u32| {
            params[*b as usize]
                .abs()
                .total_cmp(&params[*a as usize].abs())
                .then(a.cmp(b))
        };
        indices.select_nth_unstable_by(kept - 1, by_magnitude);
        indices.truncate(kept);
    }
    indices.sort_unstable();
    kept
}

/// Logical (dense-equivalent) encoded size of an update-bearing frame,
/// peeked from the header without a full parse: what the frame *would*
/// have cost as a tag-2 dense frame, its curve-terms trailer included
/// (the codec does not touch it). Returns `None` for frames that carry
/// no model update (broadcasts, adaptation traffic, garbage) — byte
/// accounting should fall back to the physical size for those.
pub fn logical_frame_len(frame: &[u8]) -> Option<usize> {
    let header = Header::parse(frame, &[TAG_UPDATE, TAG_COMPRESSED]).ok()?;
    if header.tag == TAG_UPDATE {
        header.f64s().ok()?;
    }
    let trailer = if header.terms.is_some() {
        CURVE_TERMS_LEN
    } else {
        0
    };
    // `len` is socket-supplied and, for tag 6, not yet checked against
    // anything: never let it overflow the byte counters' arithmetic.
    8usize
        .checked_mul(header.len)?
        .checked_add(encoded_frame_len(0) + trailer)
}

/// Bytes of the curve-terms trailer a frame ends with, peeked from the
/// header: [`CURVE_TERMS_LEN`] for an update frame whose tag carries the
/// flag, 0 for any other frame (unflagged updates, broadcasts,
/// adaptation traffic, garbage). Both the physical size and
/// [`logical_frame_len`] count it; a compression ratio leaves it out of
/// both, since the codec does not encode it.
pub fn curve_trailer_len(frame: &[u8]) -> usize {
    match Header::parse(frame, &[TAG_UPDATE, TAG_COMPRESSED]) {
        Ok(Header { terms: Some(_), .. }) => CURVE_TERMS_LEN,
        _ => 0,
    }
}

/// A parsed tag-6 compressed-update frame, borrowing its payload from
/// the frame buffer — the codec counterpart of
/// [`MessageView`](crate::MessageView). Parsing validates the whole
/// frame eagerly (subheader canonicality, chunk headers, index table);
/// the parameter values themselves decode lazily via
/// [`params_iter`](CompressedView::params_iter).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompressedView<'a> {
    round: u32,
    node: u32,
    len: usize,
    scheme: SchemeView<'a>,
    terms: Option<(f64, f64)>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum SchemeView<'a> {
    Dense(F64s<'a>),
    Quant {
        bits: u8,
        chunk: usize,
        payload: &'a [u8],
    },
    TopK {
        k: usize,
        indices: &'a [u8],
        values: F64s<'a>,
    },
}

impl<'a> CompressedView<'a> {
    /// Parses a compressed-update frame without copying the payload.
    ///
    /// # Errors
    ///
    /// [`DecodeError::UnknownTag`] for any non-tag-6 frame (training
    /// and adaptation tags, and frames with no version byte),
    /// [`DecodeError::UnsupportedVersion`] for any version but
    /// [`PROTOCOL_VERSION`](crate::PROTOCOL_VERSION),
    /// [`DecodeError::Truncated`] / [`DecodeError::LengthMismatch`]
    /// for structural damage, and [`DecodeError::Malformed`] when the
    /// subheader or payload violates the canonical-encoding rules
    /// (unknown scheme, bad quant bits, non-finite scale, oversized or
    /// unsorted index table, nonzero unused meta slots).
    pub fn parse(frame: &'a [u8]) -> Result<CompressedView<'a>, DecodeError> {
        let header = Header::parse(frame, &[TAG_COMPRESSED])?;
        let (round, node, len, terms) = (header.slot_a, header.slot_b, header.len, header.terms);
        let mut frame = header.body;
        if frame.len() < CODEC_SUBHEADER_LEN {
            return Err(DecodeError::Truncated);
        }
        let scheme = frame.get_u8();
        let meta_a = frame.get_u8();
        let meta_b = frame.get_u16_le();
        let meta_c = frame.get_u32_le();
        let scheme = match scheme {
            SCHEME_DENSE => {
                if meta_a != 0 || meta_b != 0 || meta_c != 0 {
                    return Err(DecodeError::Malformed("dense frames carry no codec meta"));
                }
                SchemeView::Dense(F64s::new(frame, len)?)
            }
            SCHEME_QUANT => {
                if meta_a != 8 && meta_a != 16 {
                    return Err(DecodeError::Malformed("quant bits must be 8 or 16"));
                }
                if meta_b == 0 {
                    return Err(DecodeError::Malformed("quant chunk size must be positive"));
                }
                if meta_c != 0 {
                    return Err(DecodeError::Malformed("quant frames carry no top-k meta"));
                }
                let chunk = meta_b as usize;
                let per_value = if meta_a == 16 { 2usize } else { 1 };
                let chunks = len.div_ceil(chunk);
                let expected = chunks
                    .checked_mul(QUANT_CHUNK_HEADER)
                    .and_then(|h| per_value.checked_mul(len).and_then(|v| h.checked_add(v)));
                expect_len(frame, expected)?;
                validate_quant_chunks(frame, chunk, per_value, len)?;
                SchemeView::Quant {
                    bits: meta_a,
                    chunk,
                    payload: frame,
                }
            }
            SCHEME_TOPK => {
                if meta_a != 0 || meta_b != 0 {
                    return Err(DecodeError::Malformed("top-k frames carry no quant meta"));
                }
                let k = meta_c as usize;
                if k > len {
                    return Err(DecodeError::Malformed("top-k count exceeds parameter count"));
                }
                expect_len(frame, 12usize.checked_mul(k))?;
                let (indices, values) = frame.split_at(4 * k);
                validate_topk_indices(indices, len)?;
                SchemeView::TopK {
                    k,
                    indices,
                    values: F64s::new(values, k)?,
                }
            }
            _ => return Err(DecodeError::Malformed("unknown compression scheme")),
        };
        Ok(CompressedView {
            round,
            node,
            len,
            scheme,
            terms,
        })
    }

    /// The `(query loss, support loss)` trailer of a flagged frame (see
    /// [`put_curve_terms`](crate::message::put_curve_terms)); `None` when
    /// it carries none.
    pub fn curve_terms(&self) -> Option<(f64, f64)> {
        self.terms
    }

    /// The round this update belongs to.
    pub fn round(&self) -> u32 {
        self.round
    }

    /// The reporting node id.
    pub fn node(&self) -> u32 {
        self.node
    }

    /// Logical parameter count — how many values
    /// [`params_iter`](CompressedView::params_iter) yields.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the update carries no parameters.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Lazily reconstructs the parameters in wire order, dequantizing
    /// (or zero-filling, for top-k) on the fly — no allocation.
    pub fn params_iter(&self) -> ParamsIter<'a> {
        ParamsIter {
            scheme: self.scheme,
            pos: 0,
            len: self.len,
            cursor: 0,
            in_chunk: 0,
            scale: 0.0,
            offset: 0.0,
        }
    }

    /// Overwrites `out` with the reconstructed parameters, in place —
    /// the zero-allocation decode used at aggregation. Quant payloads
    /// dequantize a chunk at a time, with
    /// [`params_iter`](CompressedView::params_iter)'s expression and bits.
    ///
    /// # Panics
    ///
    /// Panics unless `out` holds exactly [`len`](Self::len) values.
    pub fn write_params(&self, out: &mut [f64]) {
        assert_eq!(out.len(), self.len, "write_params: output length");
        let SchemeView::Quant {
            bits,
            chunk,
            payload,
        } = self.scheme
        else {
            for (o, v) in out.iter_mut().zip(self.params_iter()) {
                *o = v;
            }
            return;
        };
        let width = if bits == 16 { 2 } else { 1 };
        let mut rest = payload;
        // `parse` checked the chunk size positive, and the payload length
        // against every chunk.
        for out in out.chunks_mut(chunk) {
            let (head, tail) = rest.split_at(QUANT_CHUNK_HEADER + width * out.len());
            let (scale, offset) = quant_chunk_header(head);
            let (scale, offset) = (scale as f64, offset as f64);
            let qs = &head[QUANT_CHUNK_HEADER..];
            if width == 2 {
                for (o, q) in out.iter_mut().zip(qs.chunks_exact(2)) {
                    *o = offset + u16::from_le_bytes([q[0], q[1]]) as f64 * scale;
                }
            } else {
                for (o, &q) in out.iter_mut().zip(qs) {
                    *o = offset + q as f64 * scale;
                }
            }
            rest = tail;
        }
    }

    /// Materializes the reconstructed parameters into a fresh vector.
    pub fn params_to_vec(&self) -> Vec<f64> {
        let mut out = vec![0.0; self.len];
        self.write_params(&mut out);
        out
    }
}

/// The `(scale, offset)` header at the front of a quant chunk.
fn quant_chunk_header(chunk: &[u8]) -> (f32, f32) {
    let scale = f32::from_le_bytes(chunk[..4].try_into().expect("4 bytes"));
    let offset = f32::from_le_bytes(chunk[4..8].try_into().expect("4 bytes"));
    (scale, offset)
}

fn validate_quant_chunks(
    payload: &[u8],
    chunk: usize,
    per_value: usize,
    len: usize,
) -> Result<(), DecodeError> {
    let mut cursor = 0usize;
    let mut remaining = len;
    while remaining > 0 {
        let (scale, offset) = quant_chunk_header(&payload[cursor..]);
        if !scale.is_finite() || scale < 0.0 {
            return Err(DecodeError::Malformed(
                "quant scale must be finite and non-negative",
            ));
        }
        if !offset.is_finite() {
            return Err(DecodeError::Malformed("quant offset must be finite"));
        }
        let values = remaining.min(chunk);
        cursor += QUANT_CHUNK_HEADER + per_value * values;
        remaining -= values;
    }
    Ok(())
}

fn validate_topk_indices(indices: &[u8], len: usize) -> Result<(), DecodeError> {
    let mut prev: Option<u32> = None;
    for raw in indices.chunks_exact(4) {
        let i = u32::from_le_bytes(raw.try_into().expect("4 bytes"));
        if i as usize >= len {
            return Err(DecodeError::Malformed("top-k index out of range"));
        }
        if prev.is_some_and(|p| i <= p) {
            return Err(DecodeError::Malformed(
                "top-k indices must be strictly ascending",
            ));
        }
        prev = Some(i);
    }
    Ok(())
}

/// Lazy dequantizing parameter iterator of a [`CompressedView`].
#[derive(Debug, Clone)]
pub struct ParamsIter<'a> {
    scheme: SchemeView<'a>,
    pos: usize,
    len: usize,
    /// Quant: byte offset of the next chunk header or value. Top-k:
    /// next entry of the index table.
    cursor: usize,
    /// Quant: values already read from the current chunk, and its
    /// constants.
    in_chunk: usize,
    scale: f64,
    offset: f64,
}

impl Iterator for ParamsIter<'_> {
    type Item = f64;

    fn next(&mut self) -> Option<f64> {
        if self.pos >= self.len {
            return None;
        }
        let value = match self.scheme {
            SchemeView::Dense(values) => values.get(self.pos),
            SchemeView::Quant {
                bits,
                chunk,
                payload,
            } => {
                if self.in_chunk == 0 {
                    let (scale, offset) = quant_chunk_header(&payload[self.cursor..]);
                    (self.scale, self.offset) = (scale as f64, offset as f64);
                    self.cursor += QUANT_CHUNK_HEADER;
                }
                let at = self.cursor;
                let q = if bits == 16 {
                    self.cursor += 2;
                    u16::from_le_bytes(payload[at..at + 2].try_into().expect("2")) as f64
                } else {
                    self.cursor += 1;
                    payload[at] as f64
                };
                self.in_chunk += 1;
                if self.in_chunk == chunk {
                    self.in_chunk = 0;
                }
                self.offset + q * self.scale
            }
            SchemeView::TopK {
                indices, values, ..
            } => {
                let entry = self.cursor;
                let next_idx = indices
                    .get(4 * entry..4 * entry + 4)
                    .map(|b| u32::from_le_bytes(b.try_into().expect("4 bytes")) as usize);
                if next_idx == Some(self.pos) {
                    self.cursor += 1;
                    values.get(entry)
                } else {
                    0.0
                }
            }
        };
        self.pos += 1;
        Some(value)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.len - self.pos;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for ParamsIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framing::{prefix_frame_into, FrameBuffer};
    use crate::message::{
        encode_adapt_reject_into, encode_adapt_response_into, encode_global_into, put_curve_terms,
        AdaptFrame, AdaptRequest, MessageView, RejectReason, SampleKind, PROTOCOL_VERSION,
    };
    use proptest::prelude::*;

    fn encode(codec: UpdateCodec, round: u32, node: u32, params: &[f64]) -> BytesMut {
        let mut scratch = CodecScratch::new();
        let mut buf = BytesMut::new();
        encode_update_compressed_into(codec, round, node, params, &mut scratch, &mut buf);
        buf
    }

    fn global(round: u32, params: &[f64]) -> BytesMut {
        let mut buf = BytesMut::new();
        encode_global_into(round, params, &mut buf);
        buf
    }

    /// Length of the shared frame header, the offset of every body.
    const HEADER_LEN: usize = encoded_frame_len(0);

    /// The scalar chunk encoder the block loops replaced, kept verbatim
    /// as their byte-for-byte oracle.
    fn scalar_encode_quant_chunk(chunk: &[f64], bits: u8, buf: &mut BytesMut) {
        let qmax = ((1u64 << bits) - 1) as f64;
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &v in chunk {
            if v.is_finite() {
                lo = lo.min(v);
                hi = hi.max(v);
            }
        }
        if lo > hi {
            lo = 0.0;
            hi = 0.0;
        }
        let offset = lo as f32;
        let scale = (((hi - lo) / qmax) as f32).max(0.0);
        buf.put_f32_le(scale);
        buf.put_f32_le(offset);
        let o = offset as f64;
        let s = scale as f64;
        for &v in chunk {
            let v = if v.is_finite() {
                v
            } else if v == f64::INFINITY {
                hi
            } else {
                lo
            };
            let q = if s > 0.0 {
                ((v - o) / s).round().clamp(0.0, qmax)
            } else {
                0.0
            };
            if bits == 16 {
                buf.put_u16_le(q as u16);
            } else {
                buf.put_u8(q as u8);
            }
        }
    }

    /// A round-1, node-1 quant frame cut into `chunk`-value chunks by the
    /// scalar encoder: any chunk size the wire allows, not only
    /// [`QUANT_CHUNK`].
    fn scalar_quant_frame(bits: u8, chunk: usize, params: &[f64]) -> BytesMut {
        let mut buf = BytesMut::new();
        put_header(&mut buf, TAG_COMPRESSED, 1, 1, params.len());
        let meta_b = u16::try_from(chunk).expect("chunk size fits meta_b");
        put_subheader(&mut buf, SCHEME_QUANT, bits, meta_b, 0);
        for c in params.chunks(chunk) {
            scalar_encode_quant_chunk(c, bits, &mut buf);
        }
        buf
    }

    #[test]
    fn none_is_bitwise_todays_update_frame() {
        let params = vec![1.5, -2.5, 0.0, f64::MIN_POSITIVE];
        let frame = encode(UpdateCodec::None, 7, 3, &params);
        let mut direct = BytesMut::new();
        encode_update_into(7, 3, &params, &mut direct);
        assert_eq!(frame, direct);
        // And it parses as a plain update, not a compressed frame.
        assert!(MessageView::parse(&frame).unwrap().is_update());
        assert_eq!(
            CompressedView::parse(&frame),
            Err(DecodeError::UnknownTag(TAG_UPDATE))
        );
    }

    #[test]
    fn dense_roundtrip_is_exact() {
        let params = vec![1.5, -2.5, 0.0, f64::MAX, f64::MIN_POSITIVE];
        let frame = encode(UpdateCodec::Dense, 9, 4, &params);
        assert_eq!(frame.len(), compressed_frame_len(UpdateCodec::Dense, 5));
        let view = CompressedView::parse(&frame).unwrap();
        assert_eq!(view.round(), 9);
        assert_eq!(view.node(), 4);
        assert_eq!(view.len(), 5);
        assert!(!view.is_empty());
        assert!(matches!(view.scheme, SchemeView::Dense(_)));
        assert_eq!(view.params_to_vec(), params);
    }

    #[test]
    fn topk_keeps_largest_magnitudes_and_zero_fills() {
        let params = vec![0.1, -5.0, 0.2, 4.0, -0.3, 0.0];
        let codec = UpdateCodec::TopK { k: 2 };
        let frame = encode(codec, 1, 2, &params);
        assert_eq!(frame.len(), compressed_frame_len(codec, params.len()));
        let view = CompressedView::parse(&frame).unwrap();
        assert!(matches!(view.scheme, SchemeView::TopK { k: 2, .. }));
        assert_eq!(view.params_to_vec(), vec![0.0, -5.0, 0.0, 4.0, 0.0, 0.0]);
    }

    #[test]
    fn topk_ties_break_toward_lower_index() {
        let params = vec![1.0, -1.0, 1.0];
        let frame = encode(UpdateCodec::TopK { k: 2 }, 0, 0, &params);
        let view = CompressedView::parse(&frame).unwrap();
        assert_eq!(view.params_to_vec(), vec![1.0, -1.0, 0.0]);
    }

    #[test]
    fn topk_k_clamps_to_param_count() {
        let params = vec![3.0, -4.0];
        let frame = encode(UpdateCodec::TopK { k: 99 }, 0, 0, &params);
        let view = CompressedView::parse(&frame).unwrap();
        assert!(matches!(view.scheme, SchemeView::TopK { k: 2, .. }));
        assert_eq!(view.params_to_vec(), params);
    }

    #[test]
    fn quant_error_within_epsilon() {
        let params: Vec<f64> = (0..600).map(|i| ((i as f64) * 0.37).sin() * 3.0).collect();
        for bits in [8u8, 16] {
            let frame = encode(UpdateCodec::Quant { bits }, 2, 5, &params);
            let view = CompressedView::parse(&frame).unwrap();
            assert!(matches!(view.scheme, SchemeView::Quant { bits: b, .. } if b == bits));
            let decoded = view.params_to_vec();
            assert_eq!(decoded.len(), params.len());
            for (chunk, dchunk) in params.chunks(QUANT_CHUNK).zip(decoded.chunks(QUANT_CHUNK)) {
                let lo = chunk.iter().cloned().fold(f64::INFINITY, f64::min);
                let hi = chunk.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                let eps = quant_epsilon(lo, hi, bits);
                for (&v, &d) in chunk.iter().zip(dchunk) {
                    assert!(
                        (v - d).abs() <= eps,
                        "bits={bits} v={v} decoded={d} eps={eps}"
                    );
                }
            }
        }
    }

    #[test]
    fn quant_clamps_non_finite_inputs() {
        let params = vec![1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -2.0];
        let frame = encode(UpdateCodec::Quant { bits: 16 }, 0, 0, &params);
        let decoded = CompressedView::parse(&frame).unwrap().params_to_vec();
        let eps = quant_epsilon(-2.0, 1.0, 16);
        assert!((decoded[0] - 1.0).abs() <= eps);
        assert!((decoded[1] - -2.0).abs() <= eps, "NaN clamps low");
        assert!((decoded[2] - 1.0).abs() <= eps, "+inf clamps high");
        assert!((decoded[3] - -2.0).abs() <= eps, "-inf clamps low");
        assert!((decoded[4] - -2.0).abs() <= eps);
    }

    #[test]
    fn empty_params_legal_for_every_scheme() {
        for codec in [
            UpdateCodec::Dense,
            UpdateCodec::Quant { bits: 8 },
            UpdateCodec::TopK { k: 4 },
        ] {
            let frame = encode(codec, 0, 0, &[]);
            assert_eq!(frame.len(), compressed_frame_len(codec, 0));
            let view = CompressedView::parse(&frame).unwrap();
            assert!(view.is_empty());
            assert_eq!(view.params_to_vec(), Vec::<f64>::new());
        }
    }

    #[test]
    fn logical_frame_len_peeks_update_frames_only() {
        let params = vec![1.0; 10];
        let dense_len = encoded_frame_len(10);
        let tag2 = encode(UpdateCodec::None, 1, 2, &params);
        assert_eq!(logical_frame_len(&tag2), Some(dense_len));
        let topk = encode(UpdateCodec::TopK { k: 2 }, 1, 2, &params);
        assert!(topk.len() < dense_len);
        assert_eq!(logical_frame_len(&topk), Some(dense_len));
        let quant = encode(UpdateCodec::Quant { bits: 8 }, 1, 2, &params);
        assert_eq!(logical_frame_len(&quant), Some(dense_len));
        // Broadcasts, short frames, and garbage peek as None.
        assert_eq!(logical_frame_len(&global(1, &params)), None);
        assert_eq!(logical_frame_len(&[0x82]), None);
        assert_eq!(logical_frame_len(&[]), None);
        // A header that lies about `len` is not charged for it: a tag-2
        // body must be exactly `8·len` bytes, and no claimed length may
        // overflow the byte arithmetic.
        let len_at = HEADER_LEN - 4;
        let mut lying = tag2.to_vec();
        lying[len_at..len_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(logical_frame_len(&lying), None);
        lying.truncate(HEADER_LEN);
        assert_eq!(logical_frame_len(&lying), None);
        let mut lying = topk.to_vec();
        lying[len_at..len_at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            logical_frame_len(&lying),
            (u32::MAX as usize)
                .checked_mul(8)
                .map(|body| body + encoded_frame_len(0))
        );
    }

    #[test]
    fn curve_trailer_len_peeks_flagged_updates_only() {
        let params = vec![1.0; 10];
        for codec in [UpdateCodec::None, UpdateCodec::TopK { k: 2 }] {
            let mut frame = encode(codec, 1, 2, &params);
            assert_eq!(curve_trailer_len(&frame), 0);
            let logical = logical_frame_len(&frame).map(|len| len + CURVE_TERMS_LEN);
            put_curve_terms(&mut frame, (0.5, 0.25));
            assert_eq!(curve_trailer_len(&frame), CURVE_TERMS_LEN);
            assert_eq!(logical_frame_len(&frame), logical);
        }
        assert_eq!(curve_trailer_len(&global(1, &params)), 0);
        assert_eq!(curve_trailer_len(&[0x82]), 0);
        assert_eq!(curve_trailer_len(&[]), 0);
    }

    // --- negative paths ---------------------------------------------

    #[test]
    fn truncated_index_table_rejected() {
        let params = vec![1.0, 2.0, 3.0, 4.0];
        let mut frame = encode(UpdateCodec::TopK { k: 2 }, 0, 0, &params).to_vec();
        frame.truncate(frame.len() - 9);
        assert!(matches!(
            CompressedView::parse(&frame),
            Err(DecodeError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn out_of_range_index_rejected() {
        let params = vec![1.0, 2.0, 3.0, 4.0];
        let mut frame = encode(UpdateCodec::TopK { k: 2 }, 0, 0, &params).to_vec();
        let idx_at = HEADER_LEN + CODEC_SUBHEADER_LEN;
        frame[idx_at..idx_at + 4].copy_from_slice(&77u32.to_le_bytes());
        assert_eq!(
            CompressedView::parse(&frame),
            Err(DecodeError::Malformed("top-k index out of range"))
        );
    }

    #[test]
    fn unsorted_or_duplicate_indices_rejected() {
        let params = vec![1.0, 2.0, 3.0, 4.0];
        let frame = encode(UpdateCodec::TopK { k: 2 }, 0, 0, &params).to_vec();
        let idx_at = HEADER_LEN + CODEC_SUBHEADER_LEN;
        for (a, b) in [(3u32, 1u32), (2, 2)] {
            let mut bad = frame.clone();
            bad[idx_at..idx_at + 4].copy_from_slice(&a.to_le_bytes());
            bad[idx_at + 4..idx_at + 8].copy_from_slice(&b.to_le_bytes());
            assert_eq!(
                CompressedView::parse(&bad),
                Err(DecodeError::Malformed(
                    "top-k indices must be strictly ascending"
                ))
            );
        }
    }

    #[test]
    fn oversized_k_rejected() {
        let params = vec![1.0, 2.0, 3.0, 4.0];
        let mut frame = encode(UpdateCodec::TopK { k: 4 }, 0, 0, &params).to_vec();
        // Shrink the logical length below k without touching the payload.
        let len_at = 1 + 1 + 4 + 4;
        frame[len_at..len_at + 4].copy_from_slice(&3u32.to_le_bytes());
        assert_eq!(
            CompressedView::parse(&frame),
            Err(DecodeError::Malformed("top-k count exceeds parameter count"))
        );
    }

    #[test]
    fn non_finite_scale_rejected() {
        let params = vec![1.0; 8];
        let frame = encode(UpdateCodec::Quant { bits: 8 }, 0, 0, &params).to_vec();
        let scale_at = HEADER_LEN + CODEC_SUBHEADER_LEN;
        for bad_scale in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -1.0] {
            let mut bad = frame.clone();
            bad[scale_at..scale_at + 4].copy_from_slice(&bad_scale.to_le_bytes());
            assert_eq!(
                CompressedView::parse(&bad),
                Err(DecodeError::Malformed(
                    "quant scale must be finite and non-negative"
                ))
            );
        }
        let mut bad = frame.clone();
        bad[scale_at + 4..scale_at + 8].copy_from_slice(&f32::NAN.to_le_bytes());
        assert_eq!(
            CompressedView::parse(&bad),
            Err(DecodeError::Malformed("quant offset must be finite"))
        );
    }

    #[test]
    fn non_canonical_subheaders_rejected() {
        let params = vec![1.0, 2.0];
        let scheme_at = HEADER_LEN;
        // Dense with stray quant meta.
        let mut dense = encode(UpdateCodec::Dense, 0, 0, &params).to_vec();
        dense[scheme_at + 1] = 8;
        assert_eq!(
            CompressedView::parse(&dense),
            Err(DecodeError::Malformed("dense frames carry no codec meta"))
        );
        // Quant with bad bits / zero chunk / stray k.
        let quant = encode(UpdateCodec::Quant { bits: 8 }, 0, 0, &params).to_vec();
        let mut bad = quant.clone();
        bad[scheme_at + 1] = 7;
        assert_eq!(
            CompressedView::parse(&bad),
            Err(DecodeError::Malformed("quant bits must be 8 or 16"))
        );
        let mut bad = quant.clone();
        bad[scheme_at + 2..scheme_at + 4].copy_from_slice(&0u16.to_le_bytes());
        assert_eq!(
            CompressedView::parse(&bad),
            Err(DecodeError::Malformed("quant chunk size must be positive"))
        );
        let mut bad = quant.clone();
        bad[scheme_at + 4..scheme_at + 8].copy_from_slice(&1u32.to_le_bytes());
        assert_eq!(
            CompressedView::parse(&bad),
            Err(DecodeError::Malformed("quant frames carry no top-k meta"))
        );
        // Top-k with stray quant meta.
        let mut topk = encode(UpdateCodec::TopK { k: 1 }, 0, 0, &params).to_vec();
        topk[scheme_at + 1] = 16;
        assert_eq!(
            CompressedView::parse(&topk),
            Err(DecodeError::Malformed("top-k frames carry no quant meta"))
        );
        // Unknown scheme byte.
        let mut unknown = encode(UpdateCodec::Dense, 0, 0, &params).to_vec();
        unknown[scheme_at] = 9;
        assert_eq!(
            CompressedView::parse(&unknown),
            Err(DecodeError::Malformed("unknown compression scheme"))
        );
    }

    #[test]
    fn truncated_subheader_rejected() {
        let frame = encode(UpdateCodec::Dense, 0, 0, &[1.0]).to_vec();
        let cut = frame[..HEADER_LEN + 3].to_vec();
        assert_eq!(CompressedView::parse(&cut), Err(DecodeError::Truncated));
        assert_eq!(CompressedView::parse(&[]), Err(DecodeError::Truncated));
        assert_eq!(CompressedView::parse(&[0x82]), Err(DecodeError::Truncated));
    }

    #[test]
    fn version_window_enforced() {
        let mut frame = encode(UpdateCodec::Dense, 0, 0, &[1.0]).to_vec();
        frame[0] = 0x80 | 1;
        assert_eq!(
            CompressedView::parse(&frame),
            Err(DecodeError::UnsupportedVersion(1))
        );
        frame[0] = 0x80 | (PROTOCOL_VERSION + 1);
        assert_eq!(
            CompressedView::parse(&frame),
            Err(DecodeError::UnsupportedVersion(PROTOCOL_VERSION + 1))
        );
        // A frame with no version byte starts at its tag.
        let unversioned = &frame[1..];
        assert_eq!(
            CompressedView::parse(unversioned),
            Err(DecodeError::UnknownTag(TAG_COMPRESSED))
        );
    }

    #[test]
    fn cross_parser_rejection_is_mutual() {
        // Compressed frames must be rejected by the training and
        // adaptation parsers, and CompressedView must reject theirs —
        // the same isolation contract the PR 8 frames established.
        let compressed = encode(UpdateCodec::TopK { k: 1 }, 3, 1, &[1.0, -2.0]);
        assert_eq!(
            MessageView::parse(&compressed).err(),
            Some(DecodeError::UnknownTag(TAG_COMPRESSED))
        );
        assert!(matches!(
            AdaptFrame::parse(&compressed),
            Err(DecodeError::UnknownTag(TAG_COMPRESSED))
        ));
        assert_eq!(
            CompressedView::parse(&global(1, &[0.5])),
            Err(DecodeError::UnknownTag(1))
        );
        let adapt = AdaptRequest {
            req_id: 1,
            node: 0,
            alpha: 0.1,
            steps: 1,
            dim: 1,
            kind: SampleKind::Class,
            xs: vec![0.5],
            ys: vec![0.0],
        }
        .encode();
        assert_eq!(
            CompressedView::parse(&adapt),
            Err(DecodeError::UnknownTag(3))
        );
    }

    #[test]
    fn scratch_reuse_is_stateless() {
        // The same scratch must produce identical frames across calls,
        // including after serving a larger frame.
        let mut scratch = CodecScratch::new();
        let small = vec![1.0, -9.0, 3.0];
        let big: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let mut first = BytesMut::new();
        encode_update_compressed_into(
            UpdateCodec::TopK { k: 2 },
            0,
            0,
            &small,
            &mut scratch,
            &mut first,
        );
        let mut between = BytesMut::new();
        encode_update_compressed_into(
            UpdateCodec::TopK { k: 50 },
            0,
            0,
            &big,
            &mut scratch,
            &mut between,
        );
        let mut second = BytesMut::new();
        encode_update_compressed_into(
            UpdateCodec::TopK { k: 2 },
            0,
            0,
            &small,
            &mut scratch,
            &mut second,
        );
        assert_eq!(first, second);
    }

    #[test]
    fn display_labels() {
        assert_eq!(UpdateCodec::None.to_string(), "none");
        assert_eq!(UpdateCodec::Dense.to_string(), "dense");
        assert_eq!(UpdateCodec::Quant { bits: 8 }.to_string(), "quant8");
        assert_eq!(UpdateCodec::TopK { k: 32 }.to_string(), "topk32");
    }

    // --- property tests ---------------------------------------------

    fn any_codec() -> impl Strategy<Value = UpdateCodec> {
        prop_oneof![
            Just(UpdateCodec::Dense),
            (0usize..64).prop_map(|k| UpdateCodec::TopK { k }),
            prop_oneof![Just(8u8), Just(16u8)].prop_map(|bits| UpdateCodec::Quant { bits }),
        ]
    }

    proptest! {
        #[test]
        fn prop_frame_len_exact_and_parse_succeeds(
            codec in any_codec(),
            round in 0u32..u32::MAX,
            node in 0u32..u32::MAX,
            params in proptest::collection::vec(-1e6f64..1e6, 0..600),
        ) {
            let frame = encode(codec, round, node, &params);
            prop_assert_eq!(frame.len(), compressed_frame_len(codec, params.len()));
            let view = CompressedView::parse(&frame).unwrap();
            prop_assert_eq!(view.round(), round);
            prop_assert_eq!(view.node(), node);
            prop_assert_eq!(view.len(), params.len());
        }

        #[test]
        fn prop_dense_and_none_roundtrip_identity(
            round in 0u32..u32::MAX,
            node in 0u32..u32::MAX,
            params in proptest::collection::vec(-1e12f64..1e12, 0..128),
        ) {
            // Dense: exact value identity through the tag-6 envelope.
            let frame = encode(UpdateCodec::Dense, round, node, &params);
            let view = CompressedView::parse(&frame).unwrap();
            prop_assert_eq!(view.params_to_vec(), params.clone());
            let mut out = vec![0.0; view.len()];
            view.write_params(&mut out);
            prop_assert_eq!(out, params.clone());
            // None: bitwise the pre-codec wire.
            let none = encode(UpdateCodec::None, round, node, &params);
            let mut direct = BytesMut::new();
            encode_update_into(round, node, &params, &mut direct);
            prop_assert_eq!(none, direct);
        }

        #[test]
        fn prop_topk_roundtrip_identity_on_sparse_support(
            round in 0u32..u32::MAX,
            k in 0usize..80,
            params in proptest::collection::vec(-1e9f64..1e9, 0..80),
        ) {
            // The kept entries are exact; everything else is exactly 0.
            let frame = encode(UpdateCodec::TopK { k }, round, 1, &params);
            let view = CompressedView::parse(&frame).unwrap();
            let decoded = view.params_to_vec();
            prop_assert_eq!(decoded.len(), params.len());
            let mut kept = 0usize;
            for (v, d) in params.iter().zip(&decoded) {
                if *d != 0.0 {
                    prop_assert_eq!(v.to_bits(), d.to_bits(), "kept values are exact");
                    kept += 1;
                }
            }
            prop_assert!(kept <= k.min(params.len()));
            // When k covers everything, the round-trip is the identity
            // (up to kept zeros, which decode as the same 0.0).
            if k >= params.len() {
                for (v, d) in params.iter().zip(&decoded) {
                    prop_assert!(*v == *d || (*v == 0.0 && *d == 0.0));
                }
            }
        }

        #[test]
        fn prop_quant_error_bounded_by_epsilon(
            bits in prop_oneof![Just(8u8), Just(16u8)],
            params in proptest::collection::vec(-1e6f64..1e6, 1..600),
        ) {
            let frame = encode(UpdateCodec::Quant { bits }, 0, 0, &params);
            let decoded = CompressedView::parse(&frame).unwrap().params_to_vec();
            for (chunk, dchunk) in params.chunks(QUANT_CHUNK).zip(decoded.chunks(QUANT_CHUNK)) {
                let lo = chunk.iter().cloned().fold(f64::INFINITY, f64::min);
                let hi = chunk.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                let eps = quant_epsilon(lo, hi, bits);
                for (&v, &d) in chunk.iter().zip(dchunk) {
                    prop_assert!((v - d).abs() <= eps, "v={} d={} eps={}", v, d, eps);
                }
            }
        }

        #[test]
        fn prop_parse_never_panics_on_random_bytes(
            frame in proptest::collection::vec(0u8..=255, 0..256),
        ) {
            // Same adversarial contract as MessageView and AdaptFrame:
            // any byte string parses or errors, never panics.
            if let Ok(view) = CompressedView::parse(&frame) {
                let _ = view.params_to_vec();
            }
            let _ = logical_frame_len(&frame);
            let _ = curve_trailer_len(&frame);
        }

        #[test]
        fn prop_chunking_invariance_through_framing(
            codec in any_codec(),
            params in proptest::collection::vec(-1e6f64..1e6, 0..80),
            cut in 1usize..16,
        ) {
            // A compressed frame dribbled through FrameBuffer in
            // arbitrary chunk sizes reassembles bit-identically — the
            // same stream-layer property the v0/v1 frames are pinned to.
            let frame = encode(codec, 5, 2, &params).freeze();
            let mut stream = Vec::new();
            prefix_frame_into(&frame, &mut stream);
            let mut fb = FrameBuffer::new();
            let pool = crate::FramePool::new();
            let mut out = Vec::new();
            for piece in stream.chunks(cut) {
                fb.extend(piece);
                while let Some(f) = fb.next_frame_pooled(&pool).unwrap() {
                    out.push(f);
                }
            }
            prop_assert_eq!(out.len(), 1);
            prop_assert_eq!(&out[0][..], &frame[..]);
            if codec.is_none() {
                prop_assert!(MessageView::parse(&out[0]).is_ok());
            } else {
                prop_assert!(CompressedView::parse(&out[0]).is_ok());
            }
        }

        #[test]
        fn prop_lazy_iter_matches_copy_and_is_exact_size(
            codec in any_codec(),
            chunk in prop_oneof![Just(QUANT_CHUNK), Just(1usize), 2usize..700],
            params in proptest::collection::vec(
                (-1e6f64..1e6, 0u8..8).prop_map(|(v, z)| match z {
                    0 => 0.0,
                    1 => -0.0,
                    _ => v,
                }),
                0..300,
            ),
        ) {
            // The wire allows any positive chunk size, so quant frames
            // also come cut by chunks this encoder never picks, down to
            // one value and with a partial last chunk.
            let frame = match codec {
                UpdateCodec::Quant { bits } if chunk != QUANT_CHUNK => {
                    scalar_quant_frame(bits, chunk, &params)
                }
                _ => encode(codec, 1, 1, &params),
            };
            let view = CompressedView::parse(&frame).unwrap();
            let mut iter = view.params_iter();
            prop_assert_eq!(iter.len(), params.len());
            let lazy: Vec<u64> = iter.by_ref().map(f64::to_bits).collect();
            prop_assert_eq!(iter.len(), 0);
            let mut copied = vec![0.0; view.len()];
            view.write_params(&mut copied);
            let copied: Vec<u64> = copied.into_iter().map(f64::to_bits).collect();
            prop_assert_eq!(lazy, copied);
        }
    }

    /// One value from the families the block encoder has to agree with
    /// the scalar one on: normals at scales 1e-300…1e300, subnormals
    /// (and ±0), raw bit patterns (NaN and ±inf among them), and the
    /// specials themselves.
    fn any_wire_value() -> impl Strategy<Value = f64> {
        prop_oneof![
            (-1.0f64..1.0, -300i32..=300).prop_map(|(m, e)| m * 10f64.powi(e)),
            any::<u64>().prop_map(|b| f64::from_bits(b & 0x800f_ffff_ffff_ffff)),
            any::<u64>().prop_map(f64::from_bits),
            prop_oneof![
                Just(0.0),
                Just(-0.0),
                Just(f64::INFINITY),
                Just(f64::NEG_INFINITY),
                Just(f64::NAN),
            ],
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        #[test]
        fn prop_block_quant_encoder_is_the_scalar_encoder(
            bits in prop_oneof![Just(8u8), Just(16u8)],
            shape in 0usize..5,
            raw in proptest::collection::vec(any_wire_value(), 0..601),
            base in -(1i64 << 20)..(1i64 << 20),
            exp in -40i32..40,
        ) {
            let qmax = (1u64 << bits) - 1;
            let params: Vec<f64> = match shape {
                // The raw mixture.
                0 => raw,
                // Constant chunks.
                1 => vec![raw.first().copied().unwrap_or(1.5); raw.len()],
                // Chunks with no finite value.
                2 => raw
                    .iter()
                    .map(|v| [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][(v.to_bits() % 3) as usize])
                    .collect(),
                // An extreme at ±0 with both signs present, among
                // same-signed values, NaN and ±inf. The zeros land at
                // random positions, so the first one the ordered scan
                // meets need not be in the first lane.
                3 => {
                    let sign = if exp % 2 == 0 { 1.0 } else { -1.0 };
                    raw.iter()
                        .map(|&v| match v.to_bits() % 4 {
                            0 => 0.0,
                            1 => -0.0,
                            _ if v.is_finite() => sign * v.abs(),
                            _ => v,
                        })
                        .collect()
                }
                // Each chunk spans `[lo, lo + qmax·s]` with `lo` an f32
                // and `s` a power of two, so every other value scales to
                // exactly `k + 0.5`: the rounding ties.
                _ => {
                    let s = 2f64.powi(exp - 4);
                    let lo = base as f64 * 2f64.powi(exp);
                    raw.iter()
                        .enumerate()
                        .map(|(i, v)| match i % QUANT_CHUNK {
                            0 => lo,
                            1 => lo + qmax as f64 * s,
                            _ => lo + ((v.to_bits() % qmax) as f64 + 0.5) * s,
                        })
                        .collect()
                }
            };
            let block = encode(UpdateCodec::Quant { bits }, 1, 1, &params);
            prop_assert_eq!(block, scalar_quant_frame(bits, QUANT_CHUNK, &params));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        #[test]
        fn prop_every_reader_is_total_on_mutated_valid_frames(
            kind in 0usize..9,
            flag in 0usize..3,
            dress in 0usize..3,
            params in proptest::collection::vec(-1e6f64..1e6, 1..40),
            k in 1usize..6,
            cut in prop_oneof![Just(0usize), 0usize..64],
            tail in prop_oneof![Just(Vec::new()), proptest::collection::vec(0u8..=255, 1..9)],
            pokes in proptest::collection::vec(
                (prop_oneof![Just(24usize), Just(usize::MAX)], 0usize..4096, 0u8..=255),
                0..5,
            ),
        ) {
            // Random bytes almost never get past the tag check, so start
            // from a valid frame of every tag and scheme — with a
            // curve-terms trailer on the updates when `flag` says so —
            // and damage it: drop up to `cut` trailing bytes, append
            // `tail`, overwrite up to four bytes — half of them inside
            // the first 24, where the header and the codec subheader
            // live.
            let (round, node) = (3, 1);
            let mut buf = BytesMut::new();
            match kind {
                0 => encode_global_into(round, &params, &mut buf),
                1 => encode_update_into(round, node, &params, &mut buf),
                2 => buf.put_slice(&AdaptRequest {
                    req_id: round,
                    node,
                    alpha: 0.1,
                    steps: 2,
                    dim: 3,
                    kind: SampleKind::Value,
                    xs: params.iter().cycle().take(3 * k).copied().collect(),
                    ys: params.iter().cycle().take(k).copied().collect(),
                }
                .encode()),
                3 => encode_adapt_response_into(node, round, &params, &mut buf),
                4 => encode_adapt_reject_into(node, RejectReason::Busy, &mut buf),
                5 => buf = encode(UpdateCodec::Dense, round, node, &params),
                6 => buf = encode(UpdateCodec::Quant { bits: 8 }, round, node, &params),
                7 => buf = encode(UpdateCodec::Quant { bits: 16 }, round, node, &params),
                _ => buf = encode(UpdateCodec::TopK { k }, round, node, &params),
            }
            let update = kind == 1 || kind >= 5;
            if flag > 0 && update {
                put_curve_terms(&mut buf, (params[0], -params[0]));
            }
            let mut frame = buf.to_vec();

            // The flag on a tag that is not an update is refused whole by
            // every reader; a flagged update whose trailer lost bytes is
            // refused by its own.
            if flag > 0 && !update {
                frame[1] |= 0x40;
                frame.extend_from_slice(&[0; CURVE_TERMS_LEN]);
                let refusal = Some(DecodeError::UnknownTag(frame[1]));
                prop_assert_eq!(MessageView::parse(&frame).err(), refusal.clone());
                prop_assert_eq!(AdaptFrame::parse(&frame).err(), refusal.clone());
                prop_assert_eq!(CompressedView::parse(&frame).err(), refusal);
                prop_assert_eq!(logical_frame_len(&frame), None);
            }
            if flag == 2 && update {
                let short = &frame[..frame.len() - 1 - cut % CURVE_TERMS_LEN];
                prop_assert!(MessageView::parse(short).is_err());
                prop_assert!(CompressedView::parse(short).is_err());
                prop_assert!(AdaptFrame::parse(short).is_err());
            }

            // The two layouts old peers spoke — the frame starting at
            // its tag, and the same frame under a v1 version byte — are
            // refused by every reader, whatever the tag.
            let refusal = match dress {
                0 => None,
                1 => {
                    frame.remove(0);
                    Some(DecodeError::UnknownTag(frame[0]))
                }
                _ => {
                    frame[0] = 0x80 | 1;
                    Some(DecodeError::UnsupportedVersion(1))
                }
            };
            if let Some(refusal) = refusal {
                prop_assert_eq!(MessageView::parse(&frame).err(), Some(refusal.clone()));
                prop_assert_eq!(AdaptFrame::parse(&frame).err(), Some(refusal.clone()));
                prop_assert_eq!(CompressedView::parse(&frame).err(), Some(refusal));
                prop_assert_eq!(logical_frame_len(&frame), None);
            }

            frame.truncate(frame.len().saturating_sub(cut));
            frame.extend_from_slice(&tail);
            for (window, at, byte) in pokes {
                if !frame.is_empty() {
                    let at = at % frame.len().min(window);
                    frame[at] = byte;
                }
            }

            let training = MessageView::parse(&frame).ok();
            let adapt = AdaptFrame::parse(&frame).ok();
            let compressed = CompressedView::parse(&frame).ok();
            let accepted = [training.is_some(), adapt.is_some(), compressed.is_some()];
            prop_assert!(
                accepted.iter().filter(|&&ok| ok).count() <= 1,
                "frame accepted by more than one plane: {:?}", accepted
            );

            // An accepted view yields exactly the values it announces,
            // and the byte-accounting peek agrees with the full parse.
            let mut logical = None;
            if let Some(view) = training {
                prop_assert_eq!(view.params_iter().count(), view.len());
                if view.is_update() {
                    let trailer = view.curve_terms().map_or(0, |_| CURVE_TERMS_LEN);
                    logical = Some(encoded_frame_len(view.len()) + trailer);
                }
            }
            match adapt {
                Some(AdaptFrame::Request(view)) => {
                    let (k, dim) = (view.k() as usize, view.dim() as usize);
                    prop_assert_eq!(view.xs_iter().count(), k * dim);
                    prop_assert_eq!(view.ys_iter().count(), k);
                }
                Some(AdaptFrame::Response(view)) => {
                    prop_assert_eq!(view.params_iter().count(), view.len());
                }
                Some(AdaptFrame::Reject(_)) | None => {}
            }
            if let Some(view) = compressed {
                prop_assert_eq!(view.params_iter().len(), view.len());
                // A poked top-k `len` can legally announce billions of
                // zeros; decode only when that is cheap. The chunked
                // decoder meets poked chunk sizes and lengths here too.
                if view.len() <= 1 << 16 {
                    prop_assert_eq!(view.params_iter().count(), view.len());
                    let mut copied = vec![0.0; view.len()];
                    view.write_params(&mut copied);
                    prop_assert!(copied
                        .iter()
                        .map(|v| v.to_bits())
                        .eq(view.params_iter().map(f64::to_bits)));
                }
                let trailer = view.curve_terms().map_or(0, |_| CURVE_TERMS_LEN);
                logical = view
                    .len()
                    .checked_mul(8)
                    .map(|body| body + encoded_frame_len(0) + trailer);
            }
            if accepted.contains(&true) {
                prop_assert_eq!(logical_frame_len(&frame), logical);
            } else {
                let _ = logical_frame_len(&frame);
            }
            let _ = curve_trailer_len(&frame);
        }
    }
}
