//! The platform⇄edge wire protocol.
//!
//! Every frame on every plane — training, compressed uplink, adaptation
//! service — is one 14-byte header followed by a tag-specific body; the
//! table of tags, minimum versions, slot meanings and bodies is in
//! DESIGN.md ("Wire frames"). The format exists so that the simulator's
//! communication accounting reflects *actual serialized bytes* — the
//! quantity a real deployment pays for on the uplink.
//!
//! The header layout is known to exactly one reader, `Header::parse`,
//! and one writer, `put_header`; the all-`f64` bodies go through
//! `F64s` and `put_f64s`. Each plane's public parser — [`MessageView`]
//! (tags 1–2), [`AdaptFrame`] (tags 3–5, v2+) and
//! [`CompressedView`](crate::CompressedView) (tag 6, v2+) — hands
//! `Header::parse` the tags it owns and the version they were born in,
//! so a frame fed to the wrong plane reports
//! [`DecodeError::UnknownTag`] instead of being misread. Encoders emit
//! [`PROTOCOL_VERSION`]; a frame with no version byte is a legacy v0
//! training frame and still decodes.

use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Frame header size in bytes *excluding* the version byte
/// (tag + round + node + len). A v0 frame is exactly this long when
/// empty; a versioned frame carries one extra leading byte.
pub(crate) const HEADER_LEN: usize = 1 + 4 + 4 + 4;

/// Protocol version emitted by [`Message::encode`].
pub const PROTOCOL_VERSION: u8 = 2;

/// Oldest protocol version that carries adaptation frames. Requests,
/// responses and rejects below this version do not exist on the wire
/// and are rejected by [`AdaptFrame::parse`].
pub const ADAPT_MIN_VERSION: u8 = 2;

/// High bit marking the first byte of a frame as a version byte rather
/// than a (legacy, v0) tag byte: no tag ever has it set, so the first
/// byte alone tells the two apart.
const VERSION_MARKER: u8 = 0x80;

pub(crate) const TAG_GLOBAL: u8 = 1;
pub(crate) const TAG_UPDATE: u8 = 2;
const TAG_ADAPT_REQUEST: u8 = 3;
const TAG_ADAPT_RESPONSE: u8 = 4;
const TAG_ADAPT_REJECT: u8 = 5;

/// Count of leading `f64` slots in an [`AdaptRequest`] payload that
/// describe the sample block (`alpha`, `steps`, `k`, `dim`, label
/// kind) before the flattened samples themselves.
const ADAPT_REQUEST_PREFIX: usize = 5;

/// A message on the platform⇄edge link.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Platform → node broadcast of the global model for a round.
    GlobalModel {
        /// Communication round index.
        round: u32,
        /// Flat global parameters.
        params: Vec<f64>,
    },
    /// Node → platform upload of locally updated parameters.
    ModelUpdate {
        /// Communication round index.
        round: u32,
        /// Reporting node id.
        node: u32,
        /// Flat updated parameters.
        params: Vec<f64>,
    },
}

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
    /// The frame declares a protocol version this decoder does not
    /// understand (newer than [`PROTOCOL_VERSION`]).
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
/// split from the body that follows it. What the two `u32` slots and
/// `len` mean is up to the tag's plane.
pub(crate) struct Header<'a> {
    pub(crate) tag: u8,
    pub(crate) slot_a: u32,
    pub(crate) slot_b: u32,
    pub(crate) len: usize,
    pub(crate) body: &'a [u8],
}

impl<'a> Header<'a> {
    /// Reads the header of a frame that must carry one of `tags` at
    /// version `min_version..=PROTOCOL_VERSION`. `min_version` 0 also
    /// admits legacy frames, which start at the tag byte.
    ///
    /// An unknown tag is rejected before any other field is trusted: an
    /// adversarial frame does no work beyond the header read.
    pub(crate) fn parse(
        mut frame: &'a [u8],
        min_version: u8,
        tags: &[u8],
    ) -> Result<Self, DecodeError> {
        match frame.first() {
            Some(&first) if first & VERSION_MARKER != 0 => {
                let version = first & !VERSION_MARKER;
                // v0 is the *absence* of the version byte, never `0x80`.
                if version < min_version.max(1) || version > PROTOCOL_VERSION {
                    return Err(DecodeError::UnsupportedVersion(version));
                }
                frame = &frame[1..];
            }
            // A plane born after v0 has no legacy frames: whatever the
            // first byte says, it is not one of its tags.
            Some(&tag) if min_version > 0 => return Err(DecodeError::UnknownTag(tag)),
            _ => {}
        }
        if frame.len() < HEADER_LEN {
            return Err(DecodeError::Truncated);
        }
        let tag = frame.get_u8();
        if !tags.contains(&tag) {
            return Err(DecodeError::UnknownTag(tag));
        }
        let slot_a = frame.get_u32_le();
        let slot_b = frame.get_u32_le();
        let len = frame.get_u32_le() as usize;
        Ok(Header {
            tag,
            slot_a,
            slot_b,
            len,
            body: frame,
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
    pub(crate) fn copy_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.reserve(self.len());
        out.extend(self.iter());
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

pub(crate) fn put_f64s(buf: &mut BytesMut, values: &[f64]) {
    for &v in values {
        buf.put_f64_le(v);
    }
}

/// Appends a whole frame whose body is `params` and nothing else.
fn put_frame(buf: &mut BytesMut, tag: u8, slot_a: u32, slot_b: u32, params: &[f64]) {
    buf.reserve(encoded_frame_len(params.len()));
    put_header(buf, tag, slot_a, slot_b, params.len());
    put_f64s(buf, params);
}

impl Message {
    /// The round this message belongs to.
    pub fn round(&self) -> u32 {
        match self {
            Message::GlobalModel { round, .. } | Message::ModelUpdate { round, .. } => *round,
        }
    }

    /// Borrow of the carried parameters.
    pub fn params(&self) -> &[f64] {
        match self {
            Message::GlobalModel { params, .. } | Message::ModelUpdate { params, .. } => params,
        }
    }

    /// Serialized size in bytes (what the link will be charged):
    /// version byte + header + payload.
    pub fn encoded_len(&self) -> usize {
        encoded_frame_len(self.params().len())
    }

    /// Encodes into a binary frame at the current [`PROTOCOL_VERSION`].
    ///
    /// Thin wrapper over [`encode_into`](Message::encode_into) that
    /// allocates a fresh buffer; hot paths reuse a pooled buffer
    /// instead.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.encoded_len());
        self.encode_into(&mut buf);
        buf.freeze()
    }

    /// Appends the versioned frame to `buf` without allocating beyond
    /// what `buf` already holds (callers reserve via
    /// [`encoded_len`](Message::encoded_len), or hand in a pooled
    /// buffer whose capacity survived earlier rounds).
    ///
    /// Produces bytes identical to [`encode`](Message::encode).
    pub fn encode_into(&self, buf: &mut BytesMut) {
        match self {
            Message::GlobalModel { round, params } => encode_global_into(*round, params, buf),
            Message::ModelUpdate {
                round,
                node,
                params,
            } => encode_update_into(*round, *node, params, buf),
        }
    }

    /// Encodes into a legacy v0 frame (no version byte). Kept so
    /// compatibility with pre-versioning peers can be tested: every v0
    /// frame must keep decoding forever.
    pub fn encode_v0(&self) -> Bytes {
        Bytes::copy_from_slice(&self.encode()[1..])
    }

    /// Decodes a binary frame (versioned or legacy v0).
    ///
    /// Thin wrapper over [`MessageView::parse`] that materializes the
    /// payload into an owned `Vec<f64>`; hot paths parse the view and
    /// read the floats in place.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] for truncated frames, unknown tags,
    /// unsupported versions, or length mismatches.
    pub fn decode(frame: &[u8]) -> Result<Self, DecodeError> {
        Ok(MessageView::parse(frame)?.to_message())
    }
}

/// Serialized size in bytes of a versioned frame carrying `param_count`
/// parameters — what [`Message::encoded_len`] returns, computable
/// without building the message.
pub const fn encoded_frame_len(param_count: usize) -> usize {
    1 + HEADER_LEN + 8 * param_count
}

/// Appends a versioned [`Message::GlobalModel`] frame to `buf` without
/// requiring an owned `Vec<f64>` — byte-identical to
/// `Message::GlobalModel { round, params: params.to_vec() }.encode()`.
pub fn encode_global_into(round: u32, params: &[f64], buf: &mut BytesMut) {
    put_frame(buf, TAG_GLOBAL, round, 0, params);
}

/// Appends a versioned [`Message::ModelUpdate`] frame to `buf` without
/// requiring an owned `Vec<f64>` — byte-identical to
/// `Message::ModelUpdate { round, node, params: params.to_vec() }.encode()`.
pub fn encode_update_into(round: u32, node: u32, params: &[f64], buf: &mut BytesMut) {
    put_frame(buf, TAG_UPDATE, round, node, params);
}

/// A decoded frame that *borrows* its payload: the header fields are
/// parsed eagerly (and validated exactly like [`Message::decode`]), but
/// the `f64` parameters stay in the frame's byte buffer and are read
/// lazily via [`params_iter`](MessageView::params_iter). Decoding a
/// frame this way performs zero heap allocations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MessageView<'a> {
    tag: u8,
    round: u32,
    node: u32,
    payload: F64s<'a>,
}

impl<'a> MessageView<'a> {
    /// Parses a binary frame (versioned or legacy v0) without copying
    /// the payload.
    ///
    /// # Errors
    ///
    /// The same taxonomy as [`Message::decode`]: [`DecodeError`] for
    /// truncated frames, unknown tags, unsupported versions, or length
    /// mismatches.
    pub fn parse(frame: &'a [u8]) -> Result<Self, DecodeError> {
        let header = Header::parse(frame, 0, &[TAG_GLOBAL, TAG_UPDATE])?;
        Ok(MessageView {
            tag: header.tag,
            round: header.slot_a,
            node: header.slot_b,
            payload: header.f64s()?,
        })
    }

    /// Whether this is a platform → node [`Message::GlobalModel`] frame.
    pub fn is_global(&self) -> bool {
        self.tag == TAG_GLOBAL
    }

    /// Whether this is a node → platform [`Message::ModelUpdate`] frame.
    pub fn is_update(&self) -> bool {
        self.tag == TAG_UPDATE
    }

    /// The round this frame belongs to.
    pub fn round(&self) -> u32 {
        self.round
    }

    /// The reporting node id (0 for [`Message::GlobalModel`] frames,
    /// whose wire slot is reserved).
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

    /// Materializes the whole frame as an owned [`Message`].
    pub fn to_message(&self) -> Message {
        let params = self.params_to_vec();
        match self.tag {
            TAG_GLOBAL => Message::GlobalModel {
                round: self.round,
                params,
            },
            TAG_UPDATE => Message::ModelUpdate {
                round: self.round,
                node: self.node,
                params,
            },
            t => unreachable!("tag {t} validated by parse"),
        }
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
    pub fn code(self) -> f64 {
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
    pub fn code(self) -> u32 {
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

    /// Serialized size in bytes of this request's frame.
    pub fn encoded_len(&self) -> usize {
        encoded_adapt_request_len(self.k(), self.dim as usize)
    }

    /// Encodes into a fresh v2 frame. Thin wrapper over
    /// [`encode_adapt_request_into`]; hot paths reuse a pooled buffer.
    ///
    /// # Panics
    ///
    /// Panics if `xs.len() != k · dim` — an inconsistent request must
    /// never reach the wire.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.encoded_len());
        encode_adapt_request_into(self, &mut buf);
        buf.freeze()
    }

    /// Decodes an owned request from a frame.
    ///
    /// # Errors
    ///
    /// Whatever [`AdaptFrame::parse`] reports, plus
    /// [`DecodeError::UnknownTag`] when the frame is a response or
    /// reject rather than a request.
    pub fn decode(frame: &[u8]) -> Result<Self, DecodeError> {
        match AdaptFrame::parse(frame)? {
            AdaptFrame::Request(view) => Ok(view.to_request()),
            AdaptFrame::Response(view) => Err(DecodeError::UnknownTag(view.tag())),
            AdaptFrame::Reject(_) => Err(DecodeError::UnknownTag(TAG_ADAPT_REJECT)),
        }
    }
}

/// The service's reply to an [`AdaptRequest`]: the personalized
/// parameters plus the training round of the global they were adapted
/// from (tag 4; round slot = `global_round`, node slot = `req_id`,
/// payload = `params`).
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptResponse {
    /// Correlation id copied from the request.
    pub req_id: u32,
    /// Round of the global snapshot this reply was computed from.
    pub global_round: u32,
    /// Personalized parameters φ.
    pub params: Vec<f64>,
}

impl AdaptResponse {
    /// Serialized size in bytes of this response's frame.
    pub fn encoded_len(&self) -> usize {
        encoded_frame_len(self.params.len())
    }

    /// Encodes into a fresh v2 frame. Thin wrapper over
    /// [`encode_adapt_response_into`].
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.encoded_len());
        encode_adapt_response_into(self.req_id, self.global_round, &self.params, &mut buf);
        buf.freeze()
    }

    /// Decodes an owned response from a frame.
    ///
    /// # Errors
    ///
    /// Whatever [`AdaptFrame::parse`] reports, plus
    /// [`DecodeError::UnknownTag`] when the frame is not a response.
    pub fn decode(frame: &[u8]) -> Result<Self, DecodeError> {
        match AdaptFrame::parse(frame)? {
            AdaptFrame::Response(view) => Ok(view.to_response()),
            AdaptFrame::Request(view) => Err(DecodeError::UnknownTag(view.tag())),
            AdaptFrame::Reject(_) => Err(DecodeError::UnknownTag(TAG_ADAPT_REJECT)),
        }
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

impl AdaptReject {
    /// Serialized size in bytes of a reject frame (always empty payload).
    pub const fn encoded_len() -> usize {
        encoded_frame_len(0)
    }

    /// Encodes into a fresh v2 frame. Thin wrapper over
    /// [`encode_adapt_reject_into`].
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(Self::encoded_len());
        encode_adapt_reject_into(self.req_id, self.reason, &mut buf);
        buf.freeze()
    }
}

/// Serialized size in bytes of an [`AdaptRequest`] frame carrying `k`
/// samples of dimension `dim`.
pub const fn encoded_adapt_request_len(k: usize, dim: usize) -> usize {
    encoded_frame_len(ADAPT_REQUEST_PREFIX + k * dim + k)
}

/// Serialized size in bytes of an [`AdaptResponse`] frame carrying
/// `param_count` parameters (same shape as a training frame).
pub const fn encoded_adapt_response_len(param_count: usize) -> usize {
    encoded_frame_len(param_count)
}

/// Appends a versioned [`AdaptRequest`] frame to `buf` — byte-identical
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

/// Appends a versioned [`AdaptResponse`] frame to `buf` — byte-identical
/// to [`AdaptResponse::encode`], reusing `buf`'s capacity. This is the
/// serving hot path: a pooled buffer in, a refcounted frame out.
pub fn encode_adapt_response_into(req_id: u32, global_round: u32, params: &[f64], buf: &mut BytesMut) {
    put_frame(buf, TAG_ADAPT_RESPONSE, global_round, req_id, params);
}

/// Appends a versioned [`AdaptReject`] frame to `buf` — byte-identical
/// to [`AdaptReject::encode`], reusing `buf`'s capacity.
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

    fn tag(&self) -> u8 {
        TAG_ADAPT_REQUEST
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

    /// Materializes the whole frame as an owned [`AdaptRequest`].
    pub fn to_request(&self) -> AdaptRequest {
        AdaptRequest {
            req_id: self.req_id,
            node: self.node,
            alpha: self.alpha,
            steps: self.steps,
            dim: self.dim,
            kind: self.kind,
            xs: self.xs_iter().collect(),
            ys: self.ys_iter().collect(),
        }
    }
}

/// Zero-copy view of an [`AdaptResponse`] frame.
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

    fn tag(&self) -> u8 {
        TAG_ADAPT_RESPONSE
    }

    /// Lazily decodes the personalized parameters in wire order.
    pub fn params_iter(&self) -> impl ExactSizeIterator<Item = f64> + 'a {
        self.payload.iter()
    }

    /// Overwrites `out` with the parameters, reusing its capacity.
    pub fn copy_params_into(&self, out: &mut Vec<f64>) {
        self.payload.copy_into(out);
    }

    /// Materializes the whole frame as an owned [`AdaptResponse`].
    pub fn to_response(&self) -> AdaptResponse {
        AdaptResponse {
            req_id: self.req_id,
            global_round: self.global_round,
            params: self.params_iter().collect(),
        }
    }
}

/// A parsed v2 adaptation frame, borrowing its payload from the frame
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
    /// Parses a v2 adaptation frame without copying the sample or
    /// parameter payload.
    ///
    /// # Errors
    ///
    /// [`DecodeError::UnknownTag`] for training tags (and for legacy
    /// unversioned frames, which predate adaptation),
    /// [`DecodeError::UnsupportedVersion`] for versions outside
    /// `ADAPT_MIN_VERSION..=PROTOCOL_VERSION`, [`DecodeError::Truncated`] /
    /// [`DecodeError::LengthMismatch`] for structural damage, and
    /// [`DecodeError::Malformed`] when a request's declared counts or
    /// codes are inconsistent with its payload.
    pub fn parse(frame: &'a [u8]) -> Result<AdaptFrame<'a>, DecodeError> {
        const TAGS: [u8; 3] = [TAG_ADAPT_REQUEST, TAG_ADAPT_RESPONSE, TAG_ADAPT_REJECT];
        let header = Header::parse(frame, ADAPT_MIN_VERSION, &TAGS)?;
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

    #[test]
    fn roundtrip_global() {
        let m = Message::GlobalModel {
            round: 7,
            params: vec![1.5, -2.5, 0.0],
        };
        let bytes = m.encode();
        assert_eq!(bytes.len(), m.encoded_len());
        assert_eq!(Message::decode(&bytes).unwrap(), m);
    }

    #[test]
    fn roundtrip_update() {
        let m = Message::ModelUpdate {
            round: 3,
            node: 42,
            params: vec![f64::MAX, f64::MIN_POSITIVE],
        };
        assert_eq!(Message::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn empty_params_are_legal() {
        let m = Message::GlobalModel {
            round: 0,
            params: vec![],
        };
        assert_eq!(m.encoded_len(), 1 + HEADER_LEN);
        assert_eq!(Message::decode(&m.encode()).unwrap(), m);
    }

    #[test]
    fn truncated_frame_rejected() {
        assert_eq!(Message::decode(&[1, 2, 3]), Err(DecodeError::Truncated));
        // A bare version byte is also shorter than any legal frame.
        assert_eq!(Message::decode(&[0x81]), Err(DecodeError::Truncated));
    }

    #[test]
    fn unknown_tag_rejected() {
        let mut bytes = Message::GlobalModel {
            round: 0,
            params: vec![],
        }
        .encode()
        .to_vec();
        // Byte 0 is the version byte; byte 1 is the tag.
        bytes[1] = 99;
        assert_eq!(Message::decode(&bytes), Err(DecodeError::UnknownTag(99)));
    }

    #[test]
    fn v0_frame_still_decodes() {
        // Frames from pre-versioning peers (no leading version byte)
        // must keep decoding forever.
        let m = Message::ModelUpdate {
            round: 9,
            node: 3,
            params: vec![1.0, -2.0],
        };
        let legacy = m.encode_v0();
        assert_eq!(legacy.len(), m.encoded_len() - 1);
        assert_eq!(legacy[0], 2, "v0 frames start at the tag byte");
        assert_eq!(Message::decode(&legacy).unwrap(), m);
    }

    #[test]
    fn encode_emits_current_version() {
        let bytes = Message::GlobalModel {
            round: 1,
            params: vec![0.5],
        }
        .encode();
        assert_eq!(bytes[0], 0x80 | PROTOCOL_VERSION);
    }

    #[test]
    fn future_version_rejected() {
        let m = Message::GlobalModel {
            round: 1,
            params: vec![0.5],
        };
        let mut bytes = m.encode().to_vec();
        bytes[0] = 0x80 | (PROTOCOL_VERSION + 1);
        assert_eq!(
            Message::decode(&bytes),
            Err(DecodeError::UnsupportedVersion(PROTOCOL_VERSION + 1))
        );
        // An explicit version-0 marker is malformed too: v0 is defined
        // as the *absence* of the version byte.
        bytes[0] = 0x80;
        assert_eq!(
            Message::decode(&bytes),
            Err(DecodeError::UnsupportedVersion(0))
        );
    }

    #[test]
    fn length_mismatch_rejected() {
        let mut bytes = Message::GlobalModel {
            round: 0,
            params: vec![1.0],
        }
        .encode()
        .to_vec();
        bytes.truncate(bytes.len() - 1);
        assert!(matches!(
            Message::decode(&bytes),
            Err(DecodeError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn accessors() {
        let m = Message::ModelUpdate {
            round: 5,
            node: 1,
            params: vec![2.0],
        };
        assert_eq!(m.round(), 5);
        assert_eq!(m.params(), &[2.0]);
    }

    #[test]
    fn view_accessors_match_wire_fields() {
        let m = Message::ModelUpdate {
            round: 11,
            node: 4,
            params: vec![0.5, -0.5],
        };
        let frame = m.encode();
        let view = MessageView::parse(&frame).unwrap();
        assert!(view.is_update());
        assert!(!view.is_global());
        assert_eq!(view.round(), 11);
        assert_eq!(view.node(), 4);
        assert_eq!(view.len(), 2);
        assert!(!view.is_empty());
        assert_eq!(view.params_to_vec(), vec![0.5, -0.5]);
        assert_eq!(view.to_message(), m);
    }

    #[test]
    fn view_rejects_what_decode_rejects() {
        for frame in [
            &[1u8, 2, 3][..],
            &[0x81],
            &[0x80 | (PROTOCOL_VERSION + 1), 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
        ] {
            assert_eq!(
                MessageView::parse(frame).err(),
                Message::decode(frame).err(),
                "view and decode must share an error taxonomy"
            );
        }
    }

    #[test]
    fn copy_params_into_reuses_capacity() {
        let m = Message::GlobalModel {
            round: 1,
            params: vec![1.0, 2.0, 3.0],
        };
        let frame = m.encode();
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
        // Same contract as CoreError and CheckpointError: usable behind
        // Box<dyn Error> with leaf variants reporting no source.
        let e: Box<dyn std::error::Error> = Box::new(DecodeError::UnknownTag(3));
        assert!(e.source().is_none());
        assert!(!e.to_string().is_empty());
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DecodeError>();
    }

    #[test]
    fn unknown_tag_wins_over_bad_length() {
        // An unknown tag is rejected before the length field is trusted.
        let mut frame = vec![77u8];
        frame.extend_from_slice(&0u32.to_le_bytes());
        frame.extend_from_slice(&0u32.to_le_bytes());
        frame.extend_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(Message::decode(&frame), Err(DecodeError::UnknownTag(77)));
    }

    #[test]
    fn huge_length_field_rejected_without_allocation() {
        let mut frame = vec![TAG_GLOBAL];
        frame.extend_from_slice(&1u32.to_le_bytes());
        frame.extend_from_slice(&0u32.to_le_bytes());
        frame.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            Message::decode(&frame),
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
            let m = Message::ModelUpdate { round, node, params };
            prop_assert_eq!(Message::decode(&m.encode()).unwrap(), m);
        }

        #[test]
        fn prop_encoded_len_exact(
            params in proptest::collection::vec(-1.0f64..1.0, 0..32),
        ) {
            let m = Message::GlobalModel { round: 1, params };
            prop_assert_eq!(m.encode().len(), m.encoded_len());
        }

        #[test]
        fn prop_decode_never_panics_on_random_bytes(
            frame in proptest::collection::vec(0u8..=255, 0..256),
        ) {
            // Adversarial input: any byte string must decode or error,
            // never panic or over-allocate.
            let _ = Message::decode(&frame);
        }

        #[test]
        fn prop_decode_never_panics_on_mangled_header(
            // High-bit-set first bytes are version markers and shift the
            // header layout; the lying-length property below is stated
            // for tag-first (v0) frames.
            tag in 0u8..0x80,
            len_field in 0u32..u32::MAX,
            body in proptest::collection::vec(0u8..=255, 0..64),
        ) {
            // Worst case: a header that lies about the payload length.
            let mut frame = vec![tag];
            frame.extend_from_slice(&1u32.to_le_bytes());
            frame.extend_from_slice(&2u32.to_le_bytes());
            frame.extend_from_slice(&len_field.to_le_bytes());
            frame.extend_from_slice(&body);
            let decoded = Message::decode(&frame);
            if 8 * (len_field as u64) != body.len() as u64 {
                prop_assert!(decoded.is_err(), "lying length must be rejected");
            }
        }

        #[test]
        fn prop_v0_frames_still_decode(
            round in 0u32..u32::MAX,
            node in 0u32..u32::MAX,
            params in proptest::collection::vec(-1e12f64..1e12, 0..64),
        ) {
            // Backward compatibility: every legacy (unversioned) frame
            // decodes to the same message as its versioned encoding.
            let m = Message::ModelUpdate { round, node, params };
            prop_assert_eq!(Message::decode(&m.encode_v0()).unwrap(), m.clone());
            let g = Message::GlobalModel { round, params: m.params().to_vec() };
            prop_assert_eq!(Message::decode(&g.encode_v0()).unwrap(), g);
        }

        #[test]
        fn prop_encode_into_matches_encode(
            round in 0u32..u32::MAX,
            node in 0u32..u32::MAX,
            params in proptest::collection::vec(-1e12f64..1e12, 0..64),
        ) {
            // The pooled path must produce bitwise-identical frames to
            // the owned path, for both message kinds, including when the
            // target buffer carries stale capacity from a previous round.
            let up = Message::ModelUpdate { round, node, params: params.clone() };
            let mut buf = BytesMut::with_capacity(512);
            up.encode_into(&mut buf);
            prop_assert_eq!(buf.freeze(), up.encode());

            let mut direct = BytesMut::new();
            encode_update_into(round, node, &params, &mut direct);
            prop_assert_eq!(direct.freeze(), up.encode());

            let glob = Message::GlobalModel { round, params: params.clone() };
            let mut gbuf = BytesMut::new();
            encode_global_into(round, &params, &mut gbuf);
            prop_assert_eq!(gbuf.freeze(), glob.encode());
        }

        #[test]
        fn prop_view_agrees_with_decode(
            round in 0u32..u32::MAX,
            node in 0u32..u32::MAX,
            params in proptest::collection::vec(-1e12f64..1e12, 0..64),
        ) {
            // The borrowed view must agree with the owned decoder on
            // both wire generations (v1 and legacy v0 frames).
            let m = Message::ModelUpdate { round, node, params };
            for frame in [m.encode(), m.encode_v0()] {
                let view = MessageView::parse(&frame).unwrap();
                prop_assert_eq!(view.to_message(), Message::decode(&frame).unwrap());
                prop_assert_eq!(view.round(), m.round());
                prop_assert_eq!(view.params_to_vec(), m.params().to_vec());
                let lazy: Vec<f64> = view.params_iter().collect();
                prop_assert_eq!(lazy, m.params().to_vec());
            }
        }

        #[test]
        fn prop_view_never_panics_on_random_bytes(
            frame in proptest::collection::vec(0u8..=255, 0..256),
        ) {
            // The view is the new first line of defense on the receive
            // path: adversarial input must parse or error, never panic.
            prop_assert_eq!(
                MessageView::parse(&frame).map(|v| v.to_message()),
                Message::decode(&frame)
            );
        }

        #[test]
        fn prop_versioned_and_v0_agree(
            round in 0u32..1000u32,
            params in proptest::collection::vec(-1.0f64..1.0, 0..32),
        ) {
            // The versioned frame is exactly the v0 frame plus one
            // leading byte — the body layout did not change.
            let m = Message::GlobalModel { round, params };
            let v1 = m.encode();
            let v0 = m.encode_v0();
            prop_assert_eq!(&v1[1..], &v0[..]);
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

    #[test]
    fn adapt_request_roundtrip() {
        let req = sample_request();
        let frame = req.encode();
        assert_eq!(frame.len(), req.encoded_len());
        assert_eq!(frame[0], 0x80 | PROTOCOL_VERSION);
        assert_eq!(AdaptRequest::decode(&frame).unwrap(), req);
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
        let resp = AdaptResponse {
            req_id: 11,
            global_round: 42,
            params: vec![1.5, -2.5, f64::MIN_POSITIVE],
        };
        let frame = resp.encode();
        assert_eq!(frame.len(), resp.encoded_len());
        assert_eq!(AdaptResponse::decode(&frame).unwrap(), resp);
        match AdaptFrame::parse(&frame).unwrap() {
            AdaptFrame::Response(view) => {
                assert_eq!(view.req_id(), 11);
                assert_eq!(view.global_round(), 42);
                assert_eq!(view.len(), 3);
                assert!(!view.is_empty());
                let mut out = Vec::new();
                view.copy_params_into(&mut out);
                assert_eq!(out, resp.params);
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
            let reject = AdaptReject { req_id: 9, reason };
            let frame = reject.encode();
            assert_eq!(frame.len(), AdaptReject::encoded_len());
            assert_eq!(AdaptFrame::parse(&frame).unwrap(), AdaptFrame::Reject(reject));
        }
    }

    #[test]
    fn adapt_and_training_parsers_stay_separate() {
        // A training endpoint fed an adaptation frame reports an unknown
        // tag (it must not misread the sample block as parameters), and
        // the adaptation parser refuses training frames symmetrically.
        let req_frame = sample_request().encode();
        assert_eq!(Message::decode(&req_frame), Err(DecodeError::UnknownTag(3)));
        assert_eq!(
            MessageView::parse(&req_frame).err(),
            Some(DecodeError::UnknownTag(3))
        );
        let training = Message::GlobalModel {
            round: 1,
            params: vec![0.5],
        }
        .encode();
        assert!(matches!(
            AdaptFrame::parse(&training),
            Err(DecodeError::UnknownTag(1))
        ));
    }

    #[test]
    fn adapt_frames_require_v2() {
        // Tag 3 under a v1 version byte or in a legacy unversioned frame
        // is not a valid adaptation frame: the tags were born in v2.
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
        let len_at = 1 + 1 + 4 + 4;
        short[len_at..len_at + 4].copy_from_slice(&3u32.to_le_bytes());
        short.truncate(1 + 1 + 4 + 4 + 4 + 8 * 3);
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
        let k_at = 1 + HEADER_LEN + 8 * 2;
        frame[k_at..k_at + 8].copy_from_slice(&9.0f64.to_le_bytes());
        assert_eq!(
            AdaptFrame::parse(&frame),
            Err(DecodeError::Malformed("sample counts disagree with payload length"))
        );

        // Non-integral steps.
        let mut frame = base.encode().to_vec();
        let steps_at = 1 + HEADER_LEN + 8;
        frame[steps_at..steps_at + 8].copy_from_slice(&2.5f64.to_le_bytes());
        assert_eq!(
            AdaptFrame::parse(&frame),
            Err(DecodeError::Malformed("steps is not an integral u32"))
        );

        // Non-finite alpha.
        let mut frame = base.encode().to_vec();
        let alpha_at = 1 + HEADER_LEN;
        frame[alpha_at..alpha_at + 8].copy_from_slice(&f64::NAN.to_le_bytes());
        assert_eq!(
            AdaptFrame::parse(&frame),
            Err(DecodeError::Malformed("alpha is not finite"))
        );

        // Unknown sample-kind code.
        let mut frame = base.encode().to_vec();
        let kind_at = 1 + HEADER_LEN + 8 * 4;
        frame[kind_at..kind_at + 8].copy_from_slice(&7.0f64.to_le_bytes());
        assert_eq!(
            AdaptFrame::parse(&frame),
            Err(DecodeError::Malformed("unknown sample-kind code"))
        );

        // A reject frame with a payload or an unknown reason code.
        let mut reject = AdaptReject {
            req_id: 1,
            reason: RejectReason::Busy,
        }
        .encode()
        .to_vec();
        reject[1 + 1 + 4..1 + 1 + 4 + 4].copy_from_slice(&99u32.to_le_bytes());
        assert_eq!(
            AdaptFrame::parse(&reject),
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

    #[test]
    fn training_frames_unchanged_by_version_bump() {
        // v2's training frames are byte-identical to v1's except for the
        // version byte — and v1 frames still decode.
        let m = Message::ModelUpdate {
            round: 5,
            node: 2,
            params: vec![1.0, -1.0],
        };
        let mut as_v1 = m.encode().to_vec();
        as_v1[0] = 0x80 | 1;
        assert_eq!(Message::decode(&as_v1).unwrap(), m);
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
            prop_assert_eq!(frame.len(), req.encoded_len());
            prop_assert_eq!(AdaptRequest::decode(&frame).unwrap(), req);
        }

        #[test]
        fn prop_adapt_response_roundtrip(
            req_id in 0u32..u32::MAX,
            global_round in 0u32..u32::MAX,
            params in proptest::collection::vec(-1e12f64..1e12, 0..64),
        ) {
            let resp = AdaptResponse { req_id, global_round, params };
            let frame = resp.encode();
            prop_assert_eq!(frame.len(), resp.encoded_len());
            prop_assert_eq!(AdaptResponse::decode(&frame).unwrap(), resp);
        }

        #[test]
        fn prop_adapt_pooled_encode_matches_owned(
            req_id in 0u32..u32::MAX,
            global_round in 0u32..u32::MAX,
            params in proptest::collection::vec(-1e12f64..1e12, 0..64),
        ) {
            // The pooled serving hot path must emit bitwise-identical
            // frames to the owned encoders, including into a buffer with
            // stale capacity.
            let resp = AdaptResponse { req_id, global_round, params };
            let mut buf = BytesMut::with_capacity(512);
            encode_adapt_response_into(req_id, global_round, &resp.params, &mut buf);
            prop_assert_eq!(buf.freeze(), resp.encode());

            let reject = AdaptReject { req_id, reason: RejectReason::Busy };
            let mut rbuf = BytesMut::with_capacity(64);
            encode_adapt_reject_into(req_id, RejectReason::Busy, &mut rbuf);
            prop_assert_eq!(rbuf.freeze(), reject.encode());
        }

        #[test]
        fn prop_adapt_parse_never_panics_on_random_bytes(
            frame in proptest::collection::vec(0u8..=255, 0..256),
        ) {
            // Same adversarial-input contract as MessageView: any byte
            // string parses or errors, never panics.
            let _ = AdaptFrame::parse(&frame);
        }

        #[test]
        fn prop_training_frames_still_decode_under_v2(
            round in 0u32..u32::MAX,
            node in 0u32..u32::MAX,
            params in proptest::collection::vec(-1e12f64..1e12, 0..64),
        ) {
            // Version-bump regression guard: v0 (unversioned) and v1
            // frames decode to the same message as the current encoding.
            let m = Message::ModelUpdate { round, node, params };
            prop_assert_eq!(Message::decode(&m.encode_v0()).unwrap(), m.clone());
            let mut as_v1 = m.encode().to_vec();
            as_v1[0] = 0x80 | 1;
            prop_assert_eq!(Message::decode(&as_v1).unwrap(), m);
        }
    }
}
