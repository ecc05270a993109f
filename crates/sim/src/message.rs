//! The platform⇄edge wire protocol.
//!
//! Every frame on every plane — training, compressed uplink, adaptation
//! service — is one 14-byte header followed by a tag-specific body; the
//! table of tags, slot meanings and bodies is in DESIGN.md ("Wire
//! frames"). The format exists so that the simulator's communication
//! accounting reflects *actual serialized bytes* — the quantity a real
//! deployment pays for on the uplink.
//!
//! The header layout is known to exactly one reader, `Header::parse`,
//! and one writer, `put_header`; the all-`f64` bodies go through
//! `F64s` and `put_f64s`. Each plane's public parser — [`MessageView`]
//! (tags 1–2), [`AdaptFrame`] (tags 3–5) and
//! [`CompressedView`](crate::CompressedView) (tag 6) — hands
//! `Header::parse` the tags it owns, so a frame fed to the wrong plane
//! reports [`DecodeError::UnknownTag`] instead of being misread.
//! Encoders emit [`PROTOCOL_VERSION`] and decoders accept nothing else.

use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Frame header size in bytes (version + tag + round + node + len).
const HEADER_LEN: usize = 1 + 1 + 4 + 4 + 4;

/// The protocol version every encoder emits and every decoder requires.
pub const PROTOCOL_VERSION: u8 = 2;

/// High bit of the version byte. No tag has it set, so a frame that
/// starts at a tag (the unversioned layout of old peers) is told apart
/// by its first byte alone.
const VERSION_MARKER: u8 = 0x80;

const TAG_GLOBAL: u8 = 1;
pub(crate) const TAG_UPDATE: u8 = 2;
const TAG_ADAPT_REQUEST: u8 = 3;
const TAG_ADAPT_RESPONSE: u8 = 4;
const TAG_ADAPT_REJECT: u8 = 5;
/// Tag byte of a compressed-update frame ([`crate::codec`]).
pub(crate) const TAG_COMPRESSED: u8 = 6;

/// Bit of the tag byte that marks an update frame (tag 2 or 6) carrying
/// a [curve-terms trailer](put_curve_terms). Only [`Header::parse`]
/// reads it: every plane sees the tag without it and the body without
/// the trailer.
const CURVE_TERMS_FLAG: u8 = 0x40;

/// Bytes a curve-terms trailer adds to an update frame: the node's
/// query loss and support loss, two little-endian `f64`s.
pub const CURVE_TERMS_LEN: usize = 16;

/// Count of leading `f64` slots in an [`AdaptRequest`] payload that
/// describe the sample block (`alpha`, `steps`, `k`, `dim`, label
/// kind) before the flattened samples themselves.
const ADAPT_REQUEST_PREFIX: usize = 5;

/// Errors from decoding a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum DecodeError {
    /// The buffer is shorter than a frame header.
    Truncated,
    /// The tag byte is not a known message type.
    UnknownTag(u8),
    /// The payload length field disagrees with the buffer size.
    LengthMismatch {
        /// Bytes the header claims follow.
        expected: usize,
        /// Bytes actually present.
        actual: usize,
    },
    /// The frame declares a protocol version other than
    /// [`PROTOCOL_VERSION`].
    UnsupportedVersion(u8),
    /// The frame is structurally sound but a payload field is
    /// internally inconsistent (e.g. an adaptation request whose
    /// declared sample counts disagree with the payload length).
    Malformed(&'static str),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "frame shorter than header"),
            DecodeError::UnknownTag(t) => write!(f, "unknown message tag {t}"),
            DecodeError::LengthMismatch { expected, actual } => {
                write!(
                    f,
                    "payload length mismatch: expected {expected}, got {actual}"
                )
            }
            DecodeError::UnsupportedVersion(v) => {
                write!(f, "unsupported protocol version {v}")
            }
            DecodeError::Malformed(why) => write!(f, "malformed frame: {why}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// The fixed part of a frame, `[0x80|ver][tag][u32][u32][len:u32]`,
/// split from the body that follows it and from the curve-terms trailer
/// a flagged update frame ends with. What the two `u32` slots and `len`
/// mean is up to the tag's plane.
pub(crate) struct Header<'a> {
    pub(crate) tag: u8,
    pub(crate) slot_a: u32,
    pub(crate) slot_b: u32,
    pub(crate) len: usize,
    pub(crate) body: &'a [u8],
    /// The trailer's `(query loss, support loss)`, when the tag byte
    /// carries [`CURVE_TERMS_FLAG`].
    pub(crate) terms: Option<(f64, f64)>,
}

impl<'a> Header<'a> {
    /// Reads the header of a frame that must carry one of `tags` at
    /// [`PROTOCOL_VERSION`].
    ///
    /// The version byte and then the tag are rejected before any other
    /// field is trusted: an adversarial frame does no work beyond the
    /// header read. A tag byte with [`CURVE_TERMS_FLAG`] set names its
    /// tag without the bit, must be an update (tag 2 or 6; any other is
    /// [`DecodeError::UnknownTag`] of the whole byte), and its last
    /// [`CURVE_TERMS_LEN`] bytes are the trailer, not the body
    /// ([`DecodeError::Truncated`] when the frame is too short to hold
    /// one).
    pub(crate) fn parse(mut frame: &'a [u8], tags: &[u8]) -> Result<Self, DecodeError> {
        let first = *frame.first().ok_or(DecodeError::Truncated)?;
        if first & VERSION_MARKER == 0 {
            // No version byte: whatever it says, it is not one of `tags`.
            return Err(DecodeError::UnknownTag(first));
        }
        if first != VERSION_MARKER | PROTOCOL_VERSION {
            return Err(DecodeError::UnsupportedVersion(first & !VERSION_MARKER));
        }
        if frame.len() < HEADER_LEN {
            return Err(DecodeError::Truncated);
        }
        frame = &frame[1..];
        let byte = frame.get_u8();
        let tag = byte & !CURVE_TERMS_FLAG;
        let flagged = byte != tag;
        if !tags.contains(&tag) || flagged && tag != TAG_UPDATE && tag != TAG_COMPRESSED {
            return Err(DecodeError::UnknownTag(byte));
        }
        let slot_a = frame.get_u32_le();
        let slot_b = frame.get_u32_le();
        let len = frame.get_u32_le() as usize;
        let terms = if flagged {
            let at = frame
                .len()
                .checked_sub(CURVE_TERMS_LEN)
                .ok_or(DecodeError::Truncated)?;
            let (body, trailer) = frame.split_at(at);
            frame = body;
            let trailer = F64s(trailer);
            Some((trailer.get(0), trailer.get(1)))
        } else {
            None
        };
        Ok(Header {
            tag,
            slot_a,
            slot_b,
            len,
            body: frame,
            terms,
        })
    }

    /// The body as exactly `len` parameters.
    pub(crate) fn f64s(&self) -> Result<F64s<'a>, DecodeError> {
        F64s::new(self.body, self.len)
    }
}

/// Checks a body against the byte count its header implies. The count
/// comes from socket-supplied `u32`s, so callers compute it in checked
/// arithmetic and overflow (`None`) is a mismatch like any other.
pub(crate) fn expect_len(body: &[u8], expected: Option<usize>) -> Result<(), DecodeError> {
    match expected {
        Some(expected) if expected == body.len() => Ok(()),
        expected => Err(DecodeError::LengthMismatch {
            expected: expected.unwrap_or(usize::MAX),
            actual: body.len(),
        }),
    }
}

/// A run of little-endian `f64`s borrowed from a frame and decoded
/// lazily — no allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct F64s<'a>(&'a [u8]);

impl<'a> F64s<'a> {
    /// `bytes` as exactly `len` values.
    pub(crate) fn new(bytes: &'a [u8], len: usize) -> Result<Self, DecodeError> {
        expect_len(bytes, 8usize.checked_mul(len))?;
        Ok(F64s(bytes))
    }

    pub(crate) fn len(&self) -> usize {
        self.0.len() / 8
    }

    pub(crate) fn get(&self, i: usize) -> f64 {
        f64::from_le_bytes(self.0[8 * i..8 * i + 8].try_into().expect("slice is 8 bytes"))
    }

    pub(crate) fn split_at(&self, n: usize) -> (Self, Self) {
        let (head, tail) = self.0.split_at(8 * n);
        (F64s(head), F64s(tail))
    }

    pub(crate) fn iter(&self) -> impl ExactSizeIterator<Item = f64> + 'a {
        self.0
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("chunks_exact yields 8 bytes")))
    }

    /// Overwrites `out` with the values, reusing its capacity.
    fn copy_into(&self, out: &mut Vec<f64>) {
        out.resize(self.len(), 0.0);
        self.write_into(out);
    }

    /// Overwrites `out`, which must hold exactly [`len`](Self::len)
    /// values, with the values.
    fn write_into(&self, out: &mut [f64]) {
        assert_eq!(out.len(), self.len(), "write_params: output length");
        for (o, v) in out.iter_mut().zip(self.iter()) {
            *o = v;
        }
    }
}

/// Appends the current-version frame header — the one place the layout
/// is written.
///
/// # Panics
///
/// Panics if `len` exceeds `u32::MAX`: the header could not describe
/// the frame.
pub(crate) fn put_header(buf: &mut BytesMut, tag: u8, slot_a: u32, slot_b: u32, len: usize) {
    buf.put_u8(VERSION_MARKER | PROTOCOL_VERSION);
    buf.put_u8(tag);
    buf.put_u32_le(slot_a);
    buf.put_u32_le(slot_b);
    buf.put_u32_le(u32::try_from(len).expect("payload count fits the wire header"));
}

/// Values per block [`put_f64s`] converts on the stack before one append.
const F64_BLOCK: usize = 256;

/// Appends `values` as little-endian `f64`s, a block at a time.
pub(crate) fn put_f64s(buf: &mut BytesMut, values: &[f64]) {
    let mut block = [0u8; 8 * F64_BLOCK];
    for run in values.chunks(F64_BLOCK) {
        let bytes = &mut block[..8 * run.len()];
        for (b, v) in bytes.chunks_exact_mut(8).zip(run) {
            b.copy_from_slice(&v.to_le_bytes());
        }
        buf.put_slice(bytes);
    }
}

/// Appends a whole frame whose body is `params` and nothing else.
fn put_frame(buf: &mut BytesMut, tag: u8, slot_a: u32, slot_b: u32, params: &[f64]) {
    buf.reserve(encoded_frame_len(params.len()));
    put_header(buf, tag, slot_a, slot_b, params.len());
    put_f64s(buf, params);
}

/// Serialized size in bytes of a frame whose body is `param_count`
/// parameters — what the link is charged, computable without building
/// the frame.
pub const fn encoded_frame_len(param_count: usize) -> usize {
    HEADER_LEN + 8 * param_count
}

/// Appends the platform → node broadcast of the global model for
/// `round` (tag 1) to `buf`.
pub fn encode_global_into(round: u32, params: &[f64], buf: &mut BytesMut) {
    put_frame(buf, TAG_GLOBAL, round, 0, params);
}

/// Appends `node`'s upload of its locally updated parameters for
/// `round` (tag 2) to `buf`.
pub fn encode_update_into(round: u32, node: u32, params: &[f64], buf: &mut BytesMut) {
    put_frame(buf, TAG_UPDATE, round, node, params);
}

/// Appends the curve-terms trailer `(query loss, support loss)` to the
/// update frame `buf` holds — as encoded by [`encode_update_into`] or
/// [`encode_update_compressed_into`](crate::encode_update_compressed_into),
/// alone in the buffer — and flags its tag byte. The frame grows by
/// [`CURVE_TERMS_LEN`] bytes; its body and every other header byte are
/// unchanged.
///
/// # Panics
///
/// Panics when `buf` does not start with an unflagged update frame.
pub fn put_curve_terms(buf: &mut BytesMut, terms: (f64, f64)) {
    let tag = buf.get(1).copied();
    assert!(
        buf.first() == Some(&(VERSION_MARKER | PROTOCOL_VERSION))
            && (tag == Some(TAG_UPDATE) || tag == Some(TAG_COMPRESSED)),
        "put_curve_terms: not an unflagged update frame"
    );
    buf[1] |= CURVE_TERMS_FLAG;
    put_f64s(buf, &[terms.0, terms.1]);
}

/// A decoded training frame that *borrows* its payload: the header
/// fields are parsed and validated eagerly, but the `f64` parameters
/// stay in the frame's byte buffer and are read lazily via
/// [`params_iter`](MessageView::params_iter). Decoding a frame this way
/// performs zero heap allocations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MessageView<'a> {
    tag: u8,
    round: u32,
    node: u32,
    payload: F64s<'a>,
    terms: Option<(f64, f64)>,
}

impl<'a> MessageView<'a> {
    /// Parses a training frame without copying the payload.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] for truncated frames, unknown tags, unsupported
    /// versions, or length mismatches.
    pub fn parse(frame: &'a [u8]) -> Result<Self, DecodeError> {
        let header = Header::parse(frame, &[TAG_GLOBAL, TAG_UPDATE])?;
        Ok(MessageView {
            tag: header.tag,
            round: header.slot_a,
            node: header.slot_b,
            payload: header.f64s()?,
            terms: header.terms,
        })
    }

    /// The `(query loss, support loss)` trailer of a flagged update
    /// frame (see [`put_curve_terms`]); `None` on any other frame.
    pub fn curve_terms(&self) -> Option<(f64, f64)> {
        self.terms
    }

    /// Whether this is a platform → node global-model broadcast.
    pub fn is_global(&self) -> bool {
        self.tag == TAG_GLOBAL
    }

    /// Whether this is a node → platform model update.
    pub fn is_update(&self) -> bool {
        self.tag == TAG_UPDATE
    }

    /// The round this frame belongs to.
    pub fn round(&self) -> u32 {
        self.round
    }

    /// The reporting node id (0 for global-model frames, whose wire
    /// slot is reserved).
    pub fn node(&self) -> u32 {
        self.node
    }

    /// Number of `f64` parameters in the payload.
    pub fn len(&self) -> usize {
        self.payload.len()
    }

    /// Whether the payload carries no parameters.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lazily decodes the parameters in wire order, straight out of the
    /// frame buffer — no allocation.
    pub fn params_iter(&self) -> impl ExactSizeIterator<Item = f64> + 'a {
        self.payload.iter()
    }

    /// Materializes the parameters into a fresh vector.
    pub fn params_to_vec(&self) -> Vec<f64> {
        self.params_iter().collect()
    }

    /// Overwrites `out` with the parameters, reusing its capacity — the
    /// zero-allocation way to keep an owned copy across rounds.
    pub fn copy_params_into(&self, out: &mut Vec<f64>) {
        self.payload.copy_into(out);
    }

    /// Overwrites `out` with the parameters, in place.
    ///
    /// # Panics
    ///
    /// Panics unless `out` holds exactly [`len`](Self::len) values.
    pub fn write_params(&self, out: &mut [f64]) {
        self.payload.write_into(out);
    }
}

/// Kind of label carried by the samples in an [`AdaptRequest`]:
/// classification targets (class indices encoded as integral `f64`s) or
/// regression targets (arbitrary finite `f64`s).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleKind {
    /// Classification: each label is a non-negative integral class index.
    Class,
    /// Regression: each label is a real-valued target.
    Value,
}

impl SampleKind {
    /// Wire code for this kind (the fifth prefix slot of a request).
    fn code(self) -> f64 {
        match self {
            SampleKind::Class => 0.0,
            SampleKind::Value => 1.0,
        }
    }

    fn from_code(code: f64) -> Result<Self, DecodeError> {
        if code == 0.0 {
            Ok(SampleKind::Class)
        } else if code == 1.0 {
            Ok(SampleKind::Value)
        } else {
            Err(DecodeError::Malformed("unknown sample-kind code"))
        }
    }
}

/// Why the adaptation service rejected a request. Carried in the node
/// slot of a tag-5 frame so clients can tell transient overload (retry
/// later) from permanent refusal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RejectReason {
    /// The server's bounded queue was full or the request waited past
    /// its deadline: shed under overload, safe to retry after backoff.
    Busy,
    /// The server holds no global model yet (attached platform has not
    /// finished a round, or no checkpoint was loaded).
    Unavailable,
    /// The request violated the server's budget (k or steps over the
    /// cap, dimension mismatch, bad labels). Retrying will not help.
    BadRequest,
}

impl RejectReason {
    /// Wire code (node-slot value of a reject frame).
    fn code(self) -> u32 {
        match self {
            RejectReason::Busy => 1,
            RejectReason::Unavailable => 2,
            RejectReason::BadRequest => 3,
        }
    }

    fn from_code(code: u32) -> Result<Self, DecodeError> {
        match code {
            1 => Ok(RejectReason::Busy),
            2 => Ok(RejectReason::Unavailable),
            3 => Ok(RejectReason::BadRequest),
            _ => Err(DecodeError::Malformed("unknown reject-reason code")),
        }
    }
}

impl std::fmt::Display for RejectReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RejectReason::Busy => write!(f, "busy"),
            RejectReason::Unavailable => write!(f, "unavailable"),
            RejectReason::BadRequest => write!(f, "bad request"),
        }
    }
}

/// A target node's adaptation request: "here are my `K` support
/// samples, run `steps` gradient steps at rate `alpha` from the current
/// global and send me the personalized parameters" (eq. 6 of the
/// paper, as a wire message).
///
/// Wire layout (tag 3): the round slot carries `req_id`, the node slot
/// carries `node`, and the payload is
/// `[alpha, steps, k, dim, kind, xs (k·dim, row-major), ys (k)]` — all
/// `f64`, so the frame is physically identical to a training frame and
/// rides the pooled zero-copy path unchanged. The integer fields are
/// exactly representable (they are bounded by `u32::MAX`).
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptRequest {
    /// Client-chosen correlation id echoed back in the response.
    pub req_id: u32,
    /// Requesting target-node id (diagnostic; not used for routing).
    pub node: u32,
    /// Adaptation learning rate α.
    pub alpha: f64,
    /// Number of inner gradient steps.
    pub steps: u32,
    /// Feature dimension of each sample.
    pub dim: u32,
    /// Label kind of `ys`.
    pub kind: SampleKind,
    /// Flattened support features, row-major, `k · dim` values.
    pub xs: Vec<f64>,
    /// Support labels, `k` values.
    pub ys: Vec<f64>,
}

impl AdaptRequest {
    /// Number of support samples `K` (derived from the label vector).
    pub fn k(&self) -> usize {
        self.ys.len()
    }

    /// Encodes into a fresh frame. Thin wrapper over
    /// [`encode_adapt_request_into`]; hot paths reuse a pooled buffer.
    ///
    /// # Panics
    ///
    /// Panics if `xs.len() != k · dim` — an inconsistent request must
    /// never reach the wire.
    pub fn encode(&self) -> Bytes {
        let len = encoded_adapt_request_len(self.k(), self.dim as usize);
        let mut buf = BytesMut::with_capacity(len);
        encode_adapt_request_into(self, &mut buf);
        buf.freeze()
    }
}

/// A typed refusal (tag 5; round slot = `req_id`, node slot = reason
/// code, empty payload). Sent instead of a response so an overloaded
/// server sheds work without stalling its accept loop or silently
/// dropping the connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptReject {
    /// Correlation id copied from the request.
    pub req_id: u32,
    /// Why the request was refused.
    pub reason: RejectReason,
}

/// Serialized size in bytes of an [`AdaptRequest`] frame carrying `k`
/// samples of dimension `dim`.
pub const fn encoded_adapt_request_len(k: usize, dim: usize) -> usize {
    encoded_frame_len(ADAPT_REQUEST_PREFIX + k * dim + k)
}

/// Serialized size in bytes of an adaptation response carrying
/// `param_count` parameters (same shape as a training frame).
pub const fn encoded_adapt_response_len(param_count: usize) -> usize {
    encoded_frame_len(param_count)
}

/// Appends an [`AdaptRequest`] frame (tag 3) to `buf` — byte-identical
/// to [`AdaptRequest::encode`], reusing `buf`'s capacity.
///
/// # Panics
///
/// Panics if `req.xs.len() != req.k() · req.dim`: the sample block
/// would be unparseable, so the inconsistency is a caller bug.
pub fn encode_adapt_request_into(req: &AdaptRequest, buf: &mut BytesMut) {
    let k = req.k();
    let dim = req.dim as usize;
    assert_eq!(
        req.xs.len(),
        k * dim,
        "AdaptRequest xs/ys shape mismatch: {} features for {k} samples of dim {dim}",
        req.xs.len(),
    );
    let prefix: [f64; ADAPT_REQUEST_PREFIX] = [
        req.alpha,
        req.steps as f64,
        k as f64,
        req.dim as f64,
        req.kind.code(),
    ];
    buf.reserve(encoded_adapt_request_len(k, dim));
    put_header(
        buf,
        TAG_ADAPT_REQUEST,
        req.req_id,
        req.node,
        ADAPT_REQUEST_PREFIX + k * dim + k,
    );
    put_f64s(buf, &prefix);
    put_f64s(buf, &req.xs);
    put_f64s(buf, &req.ys);
}

/// Appends the service's reply to an [`AdaptRequest`] (tag 4; round
/// slot = `global_round`, the training round of the global the reply
/// was adapted from, node slot = `req_id`, payload = the personalized
/// `params`). This is the serving hot path: a pooled buffer in, a
/// refcounted frame out.
pub fn encode_adapt_response_into(req_id: u32, global_round: u32, params: &[f64], buf: &mut BytesMut) {
    put_frame(buf, TAG_ADAPT_RESPONSE, global_round, req_id, params);
}

/// Appends an [`AdaptReject`] frame (tag 5, empty payload) to `buf`.
pub fn encode_adapt_reject_into(req_id: u32, reason: RejectReason, buf: &mut BytesMut) {
    put_frame(buf, TAG_ADAPT_REJECT, req_id, reason.code(), &[]);
}

/// Zero-copy view of an [`AdaptRequest`] frame: the prefix fields are
/// parsed and validated eagerly, the flattened samples stay in the
/// frame buffer and are read lazily.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdaptRequestView<'a> {
    req_id: u32,
    node: u32,
    alpha: f64,
    steps: u32,
    k: u32,
    dim: u32,
    kind: SampleKind,
    xs: F64s<'a>,
    ys: F64s<'a>,
}

impl<'a> AdaptRequestView<'a> {
    /// Correlation id echoed back in the reply.
    pub fn req_id(&self) -> u32 {
        self.req_id
    }

    /// Requesting node id.
    pub fn node(&self) -> u32 {
        self.node
    }

    /// Adaptation learning rate α.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Number of inner gradient steps requested.
    pub fn steps(&self) -> u32 {
        self.steps
    }

    /// Number of support samples `K`.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// Feature dimension of each sample.
    pub fn dim(&self) -> u32 {
        self.dim
    }

    /// Label kind of the support labels.
    pub fn kind(&self) -> SampleKind {
        self.kind
    }

    /// Lazily decodes the flattened features (`k · dim` values,
    /// row-major) straight out of the frame buffer.
    pub fn xs_iter(&self) -> impl ExactSizeIterator<Item = f64> + 'a {
        self.xs.iter()
    }

    /// Lazily decodes the `k` support labels.
    pub fn ys_iter(&self) -> impl ExactSizeIterator<Item = f64> + 'a {
        self.ys.iter()
    }
}

/// Zero-copy view of an adaptation response frame
/// ([`encode_adapt_response_into`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdaptResponseView<'a> {
    req_id: u32,
    global_round: u32,
    payload: F64s<'a>,
}

impl<'a> AdaptResponseView<'a> {
    /// Correlation id copied from the request.
    pub fn req_id(&self) -> u32 {
        self.req_id
    }

    /// Round of the global snapshot that served this reply.
    pub fn global_round(&self) -> u32 {
        self.global_round
    }

    /// Number of `f64` parameters in the payload.
    pub fn len(&self) -> usize {
        self.payload.len()
    }

    /// Whether the payload carries no parameters.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lazily decodes the personalized parameters in wire order.
    pub fn params_iter(&self) -> impl ExactSizeIterator<Item = f64> + 'a {
        self.payload.iter()
    }

    /// Overwrites `out` with the parameters, reusing its capacity.
    pub fn copy_params_into(&self, out: &mut Vec<f64>) {
        self.payload.copy_into(out);
    }
}

/// A parsed adaptation frame, borrowing its payload from the frame
/// buffer — the serving-path counterpart of [`MessageView`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdaptFrame<'a> {
    /// A target node's adaptation request (tag 3).
    Request(AdaptRequestView<'a>),
    /// The service's parameters reply (tag 4).
    Response(AdaptResponseView<'a>),
    /// A typed refusal (tag 5). Owned outright — it has no payload.
    Reject(AdaptReject),
}

impl<'a> AdaptFrame<'a> {
    /// Parses an adaptation frame without copying the sample or
    /// parameter payload.
    ///
    /// # Errors
    ///
    /// [`DecodeError::UnknownTag`] for training tags (and for frames
    /// with no version byte), [`DecodeError::UnsupportedVersion`] for
    /// any version but [`PROTOCOL_VERSION`], [`DecodeError::Truncated`] /
    /// [`DecodeError::LengthMismatch`] for structural damage, and
    /// [`DecodeError::Malformed`] when a request's declared counts or
    /// codes are inconsistent with its payload.
    pub fn parse(frame: &'a [u8]) -> Result<AdaptFrame<'a>, DecodeError> {
        const TAGS: [u8; 3] = [TAG_ADAPT_REQUEST, TAG_ADAPT_RESPONSE, TAG_ADAPT_REJECT];
        let header = Header::parse(frame, &TAGS)?;
        let payload = header.f64s()?;
        let Header {
            tag,
            slot_a,
            slot_b,
            len,
            ..
        } = header;
        match tag {
            TAG_ADAPT_REQUEST => {
                if len < ADAPT_REQUEST_PREFIX {
                    return Err(DecodeError::Malformed("request payload shorter than prefix"));
                }
                let alpha = payload.get(0);
                if !alpha.is_finite() {
                    return Err(DecodeError::Malformed("alpha is not finite"));
                }
                let steps = wire_u32(payload.get(1), "steps is not an integral u32")?;
                let k = wire_u32(payload.get(2), "k is not an integral u32")?;
                let dim = wire_u32(payload.get(3), "dim is not an integral u32")?;
                if k == 0 || dim == 0 {
                    return Err(DecodeError::Malformed("k and dim must be positive"));
                }
                let kind = SampleKind::from_code(payload.get(4))?;
                let sample_slots = (k as usize)
                    .checked_mul(dim as usize)
                    .and_then(|xs| xs.checked_add(k as usize));
                match sample_slots {
                    Some(slots) if slots == len - ADAPT_REQUEST_PREFIX => {}
                    _ => {
                        return Err(DecodeError::Malformed(
                            "sample counts disagree with payload length",
                        ))
                    }
                }
                let (_, samples) = payload.split_at(ADAPT_REQUEST_PREFIX);
                let (xs, ys) = samples.split_at(k as usize * dim as usize);
                Ok(AdaptFrame::Request(AdaptRequestView {
                    req_id: slot_a,
                    node: slot_b,
                    alpha,
                    steps,
                    k,
                    dim,
                    kind,
                    xs,
                    ys,
                }))
            }
            TAG_ADAPT_RESPONSE => Ok(AdaptFrame::Response(AdaptResponseView {
                global_round: slot_a,
                req_id: slot_b,
                payload,
            })),
            _ => {
                if len != 0 {
                    return Err(DecodeError::Malformed("reject frames carry no payload"));
                }
                Ok(AdaptFrame::Reject(AdaptReject {
                    req_id: slot_a,
                    reason: RejectReason::from_code(slot_b)?,
                }))
            }
        }
    }
}

/// Validates that a wire `f64` is a finite, integral value in `u32`
/// range — the encoding every integer field of an adaptation request
/// uses (integers up to `u32::MAX` are exactly representable in `f64`).
fn wire_u32(v: f64, why: &'static str) -> Result<u32, DecodeError> {
    if v.is_finite() && v >= 0.0 && v <= u32::MAX as f64 && v.fract() == 0.0 {
        Ok(v as u32)
    } else {
        Err(DecodeError::Malformed(why))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn global(round: u32, params: &[f64]) -> BytesMut {
        let mut buf = BytesMut::new();
        encode_global_into(round, params, &mut buf);
        buf
    }

    fn update(round: u32, node: u32, params: &[f64]) -> BytesMut {
        let mut buf = BytesMut::new();
        encode_update_into(round, node, params, &mut buf);
        buf
    }

    #[test]
    fn roundtrip_global() {
        let params = [1.5, -2.5, 0.0];
        let frame = global(7, &params);
        assert_eq!(frame.len(), encoded_frame_len(3));
        let view = MessageView::parse(&frame).unwrap();
        assert!(view.is_global());
        assert_eq!(view.round(), 7);
        assert_eq!(view.params_to_vec(), params);
    }

    #[test]
    fn roundtrip_update() {
        let params = [f64::MAX, f64::MIN_POSITIVE];
        let frame = update(3, 42, &params);
        let view = MessageView::parse(&frame).unwrap();
        assert!(view.is_update());
        assert_eq!((view.round(), view.node()), (3, 42));
        assert_eq!(view.params_to_vec(), params);
    }

    #[test]
    fn empty_params_are_legal() {
        let frame = global(0, &[]);
        assert_eq!(frame.len(), HEADER_LEN);
        assert_eq!(encoded_frame_len(0), HEADER_LEN);
        assert!(MessageView::parse(&frame).unwrap().is_empty());
    }

    #[test]
    fn truncated_frame_rejected() {
        assert_eq!(MessageView::parse(&[]).err(), Some(DecodeError::Truncated));
        // A bare version byte is shorter than any legal frame, and so is
        // every proper prefix of a header.
        let frame = global(1, &[]);
        for cut in 1..HEADER_LEN {
            assert_eq!(
                MessageView::parse(&frame[..cut]).err(),
                Some(DecodeError::Truncated)
            );
        }
    }

    #[test]
    fn unknown_tag_rejected() {
        let mut bytes = global(0, &[]).to_vec();
        // Byte 0 is the version byte; byte 1 is the tag.
        bytes[1] = 99;
        assert_eq!(
            MessageView::parse(&bytes).err(),
            Some(DecodeError::UnknownTag(99))
        );
    }

    #[test]
    fn unversioned_and_v1_frames_rejected() {
        // The two layouts no encoder emits any more: a frame that starts
        // at its tag reports that byte as an unknown tag, and a v1
        // version byte is an unsupported version — on every plane.
        let mut frame = update(9, 3, &[1.0, -2.0]).to_vec();
        let unversioned = &frame[1..];
        assert_eq!(
            MessageView::parse(unversioned).err(),
            Some(DecodeError::UnknownTag(2))
        );
        assert_eq!(
            AdaptFrame::parse(unversioned),
            Err(DecodeError::UnknownTag(2))
        );
        frame[0] = 0x80 | 1;
        assert_eq!(
            MessageView::parse(&frame).err(),
            Some(DecodeError::UnsupportedVersion(1))
        );
    }

    #[test]
    fn encode_emits_current_version() {
        assert_eq!(global(1, &[0.5])[0], 0x80 | PROTOCOL_VERSION);
        assert_eq!(update(1, 2, &[0.5])[0], 0x80 | PROTOCOL_VERSION);
    }

    #[test]
    fn future_version_rejected() {
        let mut bytes = global(1, &[0.5]).to_vec();
        bytes[0] = 0x80 | (PROTOCOL_VERSION + 1);
        assert_eq!(
            MessageView::parse(&bytes).err(),
            Some(DecodeError::UnsupportedVersion(PROTOCOL_VERSION + 1))
        );
        // A version byte that says 0 is no version at all.
        bytes[0] = 0x80;
        assert_eq!(
            MessageView::parse(&bytes).err(),
            Some(DecodeError::UnsupportedVersion(0))
        );
    }

    #[test]
    fn length_mismatch_rejected() {
        let mut bytes = global(0, &[1.0]).to_vec();
        bytes.truncate(bytes.len() - 1);
        assert!(matches!(
            MessageView::parse(&bytes),
            Err(DecodeError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn accessors() {
        // A broadcast has no reporting node: its slot is reserved as 0.
        let frame = global(5, &[2.0]);
        let view = MessageView::parse(&frame).unwrap();
        assert!(view.is_global() && !view.is_update());
        assert_eq!((view.round(), view.node(), view.len()), (5, 0, 1));
    }

    #[test]
    fn view_accessors_match_wire_fields() {
        let frame = update(11, 4, &[0.5, -0.5]);
        let view = MessageView::parse(&frame).unwrap();
        assert!(view.is_update());
        assert!(!view.is_global());
        assert_eq!(view.round(), 11);
        assert_eq!(view.node(), 4);
        assert_eq!(view.len(), 2);
        assert!(!view.is_empty());
        assert_eq!(view.params_to_vec(), vec![0.5, -0.5]);
        let lazy: Vec<f64> = view.params_iter().collect();
        assert_eq!(lazy, vec![0.5, -0.5]);
    }

    #[test]
    fn copy_params_into_reuses_capacity() {
        let frame = global(1, &[1.0, 2.0, 3.0]);
        let view = MessageView::parse(&frame).unwrap();
        let mut scratch = Vec::with_capacity(16);
        let ptr = scratch.as_ptr();
        view.copy_params_into(&mut scratch);
        assert_eq!(scratch, vec![1.0, 2.0, 3.0]);
        assert!(std::ptr::eq(ptr, scratch.as_ptr()), "no reallocation");
    }

    #[test]
    fn decode_error_display() {
        assert!(DecodeError::Truncated.to_string().contains("header"));
        assert!(DecodeError::UnknownTag(7).to_string().contains('7'));
    }

    #[test]
    fn decode_error_is_std_error() {
        // Same contract as CheckpointError: usable behind
        // Box<dyn Error> with leaf variants reporting no source.
        let e: Box<dyn std::error::Error> = Box::new(DecodeError::UnknownTag(3));
        assert!(e.source().is_none());
        assert!(!e.to_string().is_empty());
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DecodeError>();
    }

    /// A header with every field chosen by the caller, then `body`.
    fn raw_frame(first: u8, tag: u8, len_field: u32, body: &[u8]) -> Vec<u8> {
        let mut frame = vec![first, tag];
        frame.extend_from_slice(&1u32.to_le_bytes());
        frame.extend_from_slice(&2u32.to_le_bytes());
        frame.extend_from_slice(&len_field.to_le_bytes());
        frame.extend_from_slice(body);
        frame
    }

    #[test]
    fn training_frames_unchanged_by_version_bump() {
        // Behind the version byte a training frame is laid out as it was
        // before there was one: tag, round, node, count, then the floats.
        let mut body = 1.0f64.to_le_bytes().to_vec();
        body.extend_from_slice(&(-1.0f64).to_le_bytes());
        let expect = raw_frame(0x80 | PROTOCOL_VERSION, TAG_UPDATE, 2, &body);
        assert_eq!(&update(1, 2, &[1.0, -1.0])[..], &expect[..]);
    }

    #[test]
    fn unknown_tag_wins_over_bad_length() {
        // An unknown tag is rejected before the length field is trusted.
        let frame = raw_frame(0x80 | PROTOCOL_VERSION, 77, u32::MAX, &[]);
        assert_eq!(
            MessageView::parse(&frame).err(),
            Some(DecodeError::UnknownTag(77))
        );
    }

    #[test]
    fn huge_length_field_rejected_without_allocation() {
        let frame = raw_frame(0x80 | PROTOCOL_VERSION, TAG_GLOBAL, u32::MAX, &[]);
        assert!(matches!(
            MessageView::parse(&frame),
            Err(DecodeError::LengthMismatch { .. })
        ));
    }

    proptest! {
        #[test]
        fn prop_roundtrip_arbitrary(
            round in 0u32..u32::MAX,
            node in 0u32..u32::MAX,
            params in proptest::collection::vec(-1e12f64..1e12, 0..64),
        ) {
            let frame = update(round, node, &params);
            let view = MessageView::parse(&frame).unwrap();
            prop_assert!(view.is_update());
            prop_assert_eq!((view.round(), view.node()), (round, node));
            prop_assert_eq!(view.params_to_vec(), params);
        }

        #[test]
        fn prop_encoded_len_exact(
            params in proptest::collection::vec(-1.0f64..1.0, 0..32),
        ) {
            // What the simulator charges is what the encoders append.
            prop_assert_eq!(global(1, &params).len(), encoded_frame_len(params.len()));
            prop_assert_eq!(update(1, 2, &params).len(), encoded_frame_len(params.len()));
        }

        #[test]
        fn prop_decode_never_panics_on_random_bytes(
            tag in 0u8..8,
            rest in proptest::collection::vec(0u8..=255, 0..256),
        ) {
            // Uniform bytes stop at the version check 255 times in 256:
            // put the noise behind a valid version byte and a small tag
            // so it reaches the slot, length and body reads.
            let mut frame = vec![0x80 | PROTOCOL_VERSION, tag];
            frame.extend_from_slice(&rest);
            let _ = MessageView::parse(&frame);
            let _ = AdaptFrame::parse(&frame);
        }

        #[test]
        fn prop_view_never_panics_on_random_bytes(
            frame in proptest::collection::vec(0u8..=255, 0..256),
        ) {
            // The view is the first line of defense on the receive
            // path: adversarial input must parse or error, never panic.
            let _ = MessageView::parse(&frame);
        }

        #[test]
        fn prop_decode_never_panics_on_mangled_header(
            first in 0u8..=255,
            tag in 0u8..0x80,
            len_field in 0u32..u32::MAX,
            body in proptest::collection::vec(0u8..=255, 0..64),
        ) {
            // Worst case: a header that lies about the payload length,
            // under any first byte.
            let frame = raw_frame(first, tag, len_field, &body);
            let parsed = MessageView::parse(&frame);
            if first & 0x80 == 0 {
                prop_assert_eq!(parsed.err(), Some(DecodeError::UnknownTag(first)));
            } else if first != 0x80 | PROTOCOL_VERSION {
                prop_assert_eq!(parsed.err(), Some(DecodeError::UnsupportedVersion(first & 0x7f)));
            } else if 8 * (len_field as u64) != body.len() as u64 {
                prop_assert!(parsed.is_err(), "lying length must be rejected");
            }
        }

        #[test]
        fn prop_encode_into_matches_encode(
            round in 0u32..u32::MAX,
            node in 0u32..u32::MAX,
            params in proptest::collection::vec(-1e12f64..1e12, 0..64),
            stale in proptest::collection::vec(0u8..=255, 0..64),
        ) {
            // A pooled buffer arrives with stale capacity, and may be
            // appended to after other bytes: the frame written is the
            // same bytes a fresh buffer gets.
            let mut buf = BytesMut::with_capacity(512);
            buf.put_slice(&stale);
            encode_update_into(round, node, &params, &mut buf);
            prop_assert_eq!(&buf[stale.len()..], &update(round, node, &params)[..]);

            buf.clear();
            encode_global_into(round, &params, &mut buf);
            prop_assert_eq!(buf, global(round, &params));
        }
    }

    fn sample_request() -> AdaptRequest {
        AdaptRequest {
            req_id: 7,
            node: 3,
            alpha: 0.05,
            steps: 4,
            dim: 2,
            kind: SampleKind::Class,
            xs: vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6],
            ys: vec![0.0, 1.0, 0.0],
        }
    }

    fn response(req_id: u32, global_round: u32, params: &[f64]) -> BytesMut {
        let mut buf = BytesMut::new();
        encode_adapt_response_into(req_id, global_round, params, &mut buf);
        buf
    }

    fn reject(req_id: u32, reason: RejectReason) -> BytesMut {
        let mut buf = BytesMut::new();
        encode_adapt_reject_into(req_id, reason, &mut buf);
        buf
    }

    #[test]
    fn adapt_request_roundtrip() {
        let req = sample_request();
        let frame = req.encode();
        assert_eq!(frame.len(), encoded_adapt_request_len(req.k(), 2));
        assert_eq!(frame[0], 0x80 | PROTOCOL_VERSION);
        match AdaptFrame::parse(&frame).unwrap() {
            AdaptFrame::Request(view) => {
                assert_eq!(view.req_id(), 7);
                assert_eq!(view.node(), 3);
                assert_eq!(view.alpha(), 0.05);
                assert_eq!(view.steps(), 4);
                assert_eq!(view.k(), 3);
                assert_eq!(view.dim(), 2);
                assert_eq!(view.kind(), SampleKind::Class);
                let xs: Vec<f64> = view.xs_iter().collect();
                let ys: Vec<f64> = view.ys_iter().collect();
                assert_eq!(xs, req.xs);
                assert_eq!(ys, req.ys);
            }
            other => panic!("expected request, got {other:?}"),
        }
    }

    #[test]
    fn adapt_response_roundtrip() {
        let params = [1.5, -2.5, f64::MIN_POSITIVE];
        let frame = response(11, 42, &params);
        assert_eq!(frame.len(), encoded_adapt_response_len(3));
        match AdaptFrame::parse(&frame).unwrap() {
            AdaptFrame::Response(view) => {
                assert_eq!(view.req_id(), 11);
                assert_eq!(view.global_round(), 42);
                assert_eq!(view.len(), 3);
                assert!(!view.is_empty());
                let mut out = Vec::new();
                view.copy_params_into(&mut out);
                assert_eq!(out, params);
            }
            other => panic!("expected response, got {other:?}"),
        }
    }

    #[test]
    fn adapt_reject_roundtrip() {
        for reason in [
            RejectReason::Busy,
            RejectReason::Unavailable,
            RejectReason::BadRequest,
        ] {
            let frame = reject(9, reason);
            assert_eq!(frame.len(), encoded_frame_len(0));
            assert_eq!(
                AdaptFrame::parse(&frame).unwrap(),
                AdaptFrame::Reject(AdaptReject { req_id: 9, reason })
            );
        }
    }

    #[test]
    fn adapt_and_training_parsers_stay_separate() {
        // A training endpoint fed an adaptation frame reports an unknown
        // tag (it must not misread the sample block as parameters), and
        // the adaptation parser refuses training frames symmetrically.
        let req_frame = sample_request().encode();
        assert_eq!(
            MessageView::parse(&req_frame).err(),
            Some(DecodeError::UnknownTag(3))
        );
        assert!(matches!(
            AdaptFrame::parse(&global(1, &[0.5])),
            Err(DecodeError::UnknownTag(1))
        ));
    }

    #[test]
    fn adapt_frames_require_v2() {
        // Tag 3 under a v1 version byte or with no version byte at all
        // is not an adaptation frame.
        let mut frame = sample_request().encode().to_vec();
        frame[0] = 0x80 | 1;
        assert_eq!(
            AdaptFrame::parse(&frame),
            Err(DecodeError::UnsupportedVersion(1))
        );
        let unversioned = &frame[1..];
        assert_eq!(
            AdaptFrame::parse(unversioned),
            Err(DecodeError::UnknownTag(3))
        );
        frame[0] = 0x80 | (PROTOCOL_VERSION + 1);
        assert_eq!(
            AdaptFrame::parse(&frame),
            Err(DecodeError::UnsupportedVersion(PROTOCOL_VERSION + 1))
        );
    }

    #[test]
    fn adapt_malformed_payloads_rejected() {
        let base = sample_request();

        // Truncated sample block: header length says fewer slots than
        // the prefix needs.
        let mut short = base.encode().to_vec();
        // Rewrite payload len to 3 slots and truncate to match.
        let len_at = HEADER_LEN - 4;
        short[len_at..len_at + 4].copy_from_slice(&3u32.to_le_bytes());
        short.truncate(HEADER_LEN + 8 * 3);
        assert_eq!(
            AdaptFrame::parse(&short),
            Err(DecodeError::Malformed("request payload shorter than prefix"))
        );

        // k = 0 is meaningless.
        let mut zero_k = base.clone();
        zero_k.xs.clear();
        zero_k.ys.clear();
        let frame = zero_k.encode();
        assert_eq!(
            AdaptFrame::parse(&frame),
            Err(DecodeError::Malformed("k and dim must be positive"))
        );

        // Counts that disagree with the payload length.
        let mut frame = base.encode().to_vec();
        let k_at = HEADER_LEN + 8 * 2;
        frame[k_at..k_at + 8].copy_from_slice(&9.0f64.to_le_bytes());
        assert_eq!(
            AdaptFrame::parse(&frame),
            Err(DecodeError::Malformed("sample counts disagree with payload length"))
        );

        // Non-integral steps.
        let mut frame = base.encode().to_vec();
        let steps_at = HEADER_LEN + 8;
        frame[steps_at..steps_at + 8].copy_from_slice(&2.5f64.to_le_bytes());
        assert_eq!(
            AdaptFrame::parse(&frame),
            Err(DecodeError::Malformed("steps is not an integral u32"))
        );

        // Non-finite alpha.
        let mut frame = base.encode().to_vec();
        let alpha_at = HEADER_LEN;
        frame[alpha_at..alpha_at + 8].copy_from_slice(&f64::NAN.to_le_bytes());
        assert_eq!(
            AdaptFrame::parse(&frame),
            Err(DecodeError::Malformed("alpha is not finite"))
        );

        // Unknown sample-kind code.
        let mut frame = base.encode().to_vec();
        let kind_at = HEADER_LEN + 8 * 4;
        frame[kind_at..kind_at + 8].copy_from_slice(&7.0f64.to_le_bytes());
        assert_eq!(
            AdaptFrame::parse(&frame),
            Err(DecodeError::Malformed("unknown sample-kind code"))
        );

        // A reject frame with an unknown reason code.
        let mut frame = reject(1, RejectReason::Busy).to_vec();
        let reason_at = 1 + 1 + 4;
        frame[reason_at..reason_at + 4].copy_from_slice(&99u32.to_le_bytes());
        assert_eq!(
            AdaptFrame::parse(&frame),
            Err(DecodeError::Malformed("unknown reject-reason code"))
        );
    }

    #[test]
    fn adapt_encode_panics_on_shape_mismatch() {
        let mut req = sample_request();
        req.xs.pop();
        let result = std::panic::catch_unwind(move || req.encode());
        assert!(result.is_err(), "inconsistent request must not encode");
    }

    proptest! {
        #[test]
        fn prop_adapt_request_roundtrip(
            req_id in 0u32..u32::MAX,
            node in 0u32..u32::MAX,
            alpha in -10.0f64..10.0,
            steps in 0u32..1000,
            dim in 1usize..8,
            k in 1usize..16,
            kind in prop_oneof![Just(SampleKind::Class), Just(SampleKind::Value)],
            seed in 0u64..1000,
        ) {
            // Deterministic pseudo-sample fill so xs/ys exercise many
            // bit patterns without a separate generator per shape.
            let xs: Vec<f64> = (0..k * dim)
                .map(|i| ((seed as f64) + i as f64 * 0.37).sin())
                .collect();
            let ys: Vec<f64> = (0..k)
                .map(|i| match kind {
                    SampleKind::Class => (i % 2) as f64,
                    SampleKind::Value => (seed as f64) - i as f64,
                })
                .collect();
            let req = AdaptRequest {
                req_id, node, alpha, steps,
                dim: dim as u32, kind, xs, ys,
            };
            let frame = req.encode();
            prop_assert_eq!(frame.len(), encoded_adapt_request_len(k, dim));
            let Ok(AdaptFrame::Request(view)) = AdaptFrame::parse(&frame) else {
                panic!("not a request");
            };
            prop_assert_eq!(
                (view.req_id(), view.node(), view.alpha(), view.steps(), view.kind()),
                (req_id, node, alpha, steps, kind)
            );
            prop_assert_eq!((view.k() as usize, view.dim() as usize), (k, dim));
            prop_assert_eq!(view.xs_iter().collect::<Vec<_>>(), req.xs);
            prop_assert_eq!(view.ys_iter().collect::<Vec<_>>(), req.ys);
        }

        #[test]
        fn prop_adapt_response_roundtrip(
            req_id in 0u32..u32::MAX,
            global_round in 0u32..u32::MAX,
            params in proptest::collection::vec(-1e12f64..1e12, 0..64),
        ) {
            let frame = response(req_id, global_round, &params);
            prop_assert_eq!(frame.len(), encoded_adapt_response_len(params.len()));
            let Ok(AdaptFrame::Response(view)) = AdaptFrame::parse(&frame) else {
                panic!("not a response");
            };
            prop_assert_eq!((view.req_id(), view.global_round()), (req_id, global_round));
            prop_assert_eq!(view.params_iter().collect::<Vec<_>>(), params);
        }

        #[test]
        fn prop_adapt_pooled_encode_matches_owned(
            req_id in 0u32..u32::MAX,
            global_round in 0u32..u32::MAX,
            params in proptest::collection::vec(-1e12f64..1e12, 0..64),
        ) {
            // The serving hot path encodes into pooled buffers that come
            // back with another frame's capacity: the bytes must be the
            // ones a freshly owned buffer gets.
            let pool = crate::FramePool::new();
            pool.release(response(1, 1, &[7.0; 80]));
            let mut buf = pool.acquire(encoded_adapt_response_len(params.len()));
            encode_adapt_response_into(req_id, global_round, &params, &mut buf);
            prop_assert_eq!(&buf, &response(req_id, global_round, &params));

            pool.release(buf);
            let mut buf = pool.acquire(encoded_frame_len(0));
            encode_adapt_reject_into(req_id, RejectReason::Busy, &mut buf);
            prop_assert_eq!(buf, reject(req_id, RejectReason::Busy));
            prop_assert_eq!(pool.stats().hits, 2);
        }

        #[test]
        fn prop_adapt_parse_never_panics_on_random_bytes(
            frame in proptest::collection::vec(0u8..=255, 0..256),
        ) {
            // Same adversarial-input contract as MessageView: any byte
            // string parses or errors, never panics.
            let _ = AdaptFrame::parse(&frame);
        }
    }
}
