//! Workspace-local stand-in for the `bytes` crate.
//!
//! Implements the subset the wire path in `fml-sim` and `fml-runtime`
//! calls:
//!
//! * [`Bytes`]: `copy_from_slice`, `try_into_mut`, `From<Vec<u8>>`, into
//!   `Vec<u8>`, and `Deref`/`AsRef` to `[u8]`;
//! * [`BytesMut`]: `new`, `with_capacity`, `clear`, `reserve`, `capacity`,
//!   `freeze`, and `Deref` to `[u8]`;
//! * [`Buf`] on `&[u8]`: `remaining`, `get_u8`, `get_u16_le`,
//!   `get_u32_le` (wider fields are read with `from_le_bytes`);
//! * [`BufMut`] on [`BytesMut`]: `put_u8`, `put_u16_le`, `put_u32_le`,
//!   `put_f32_le`, `put_f64_le`, `put_slice`.
//!
//! [`Bytes`] is refcounted (`Arc<Vec<u8>>`), matching upstream's key
//! property: `clone()` is a pointer bump, not a copy, so broadcasting
//! one encoded frame to N links costs one allocation total. A uniquely
//! held buffer can be reclaimed with [`Bytes::try_into_mut`], which is
//! what lets a frame pool recycle storage instead of allocating per
//! frame. The reclaimed [`BytesMut`] keeps the emptied refcount block
//! too, and its [`freeze`](BytesMut::freeze) refills that block, so a
//! recycled frame goes acquire → encode → freeze → clone → reclaim
//! without a single allocator call.

#![forbid(unsafe_code)]

use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// An immutable, cheaply cloneable byte buffer.
///
/// Cloning bumps a refcount; all clones view the same heap allocation.
#[derive(Debug, Clone)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
}

impl Bytes {
    /// Copies a slice into a new buffer.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes {
            data: Arc::new(data.to_vec()),
        }
    }

    /// Reclaims the underlying storage as a [`BytesMut`] when this is
    /// the only handle; otherwise hands `self` back unchanged.
    ///
    /// The returned buffer keeps its contents and capacity — a frame
    /// pool clears it on reuse — and the emptied refcount block, which
    /// its [`freeze`](BytesMut::freeze) refills: steady-state encode
    /// paths allocate nothing.
    ///
    /// # Errors
    ///
    /// Returns `Err(self)` when other clones still share the buffer.
    pub fn try_into_mut(mut self) -> Result<BytesMut, Bytes> {
        match Arc::get_mut(&mut self.data) {
            Some(data) => Ok(BytesMut {
                data: std::mem::take(data),
                shell: Some(self.data),
            }),
            None => Err(self),
        }
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.data.as_slice() == other.data.as_slice()
    }
}

impl Eq for Bytes {}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(data: Vec<u8>) -> Self {
        Bytes {
            data: Arc::new(data),
        }
    }
}

/// A growable byte buffer.
#[derive(Debug, Default)]
pub struct BytesMut {
    data: Vec<u8>,
    /// The refcount block of the [`Bytes`] this buffer was reclaimed
    /// from, holding an empty `Vec`; [`freeze`](BytesMut::freeze) moves
    /// `data` back into it instead of allocating a new one.
    shell: Option<Arc<Vec<u8>>>,
}

/// A clone is a fresh buffer: it copies the contents and shares no
/// refcount block, so both may be frozen.
impl Clone for BytesMut {
    fn clone(&self) -> Self {
        BytesMut {
            data: self.data.clone(),
            shell: None,
        }
    }
}

impl PartialEq for BytesMut {
    fn eq(&self, other: &Self) -> bool {
        self.data == other.data
    }
}

impl Eq for BytesMut {}

impl BytesMut {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        BytesMut::default()
    }

    /// Creates an empty buffer with reserved capacity.
    pub fn with_capacity(capacity: usize) -> Self {
        BytesMut {
            data: Vec::with_capacity(capacity),
            shell: None,
        }
    }

    /// Clears the contents, keeping the capacity.
    pub fn clear(&mut self) {
        self.data.clear();
    }

    /// Reserves capacity for at least `additional` more bytes.
    pub fn reserve(&mut self, additional: usize) {
        self.data.reserve(additional);
    }

    /// Bytes the buffer can hold without reallocating.
    pub fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Freezes into an immutable [`Bytes`] without copying the data,
    /// reusing the refcount block of a reclaimed buffer.
    pub fn freeze(self) -> Bytes {
        match self.shell {
            Some(mut shell) => {
                // The shell came out of a unique `Bytes` and no clone of
                // a `BytesMut` shares it, so this handle is its only one.
                *Arc::get_mut(&mut shell).expect("a reclaimed shell is unshared") = self.data;
                Bytes { data: shell }
            }
            None => Bytes::from(self.data),
        }
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }
}

/// Read access to a byte cursor, advancing past consumed bytes.
pub trait Buf {
    /// Bytes remaining.
    fn remaining(&self) -> usize;

    /// Reads one byte.
    fn get_u8(&mut self) -> u8;

    /// Reads a little-endian `u16`.
    fn get_u16_le(&mut self) -> u16;

    /// Reads a little-endian `u32`.
    fn get_u32_le(&mut self) -> u32;
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn get_u8(&mut self) -> u8 {
        let (first, rest) = self.split_first().expect("get_u8: buffer underflow");
        *self = rest;
        *first
    }

    fn get_u16_le(&mut self) -> u16 {
        let (head, rest) = self.split_at(2);
        let value = u16::from_le_bytes(head.try_into().expect("2 bytes"));
        *self = rest;
        value
    }

    fn get_u32_le(&mut self) -> u32 {
        let (head, rest) = self.split_at(4);
        let value = u32::from_le_bytes(head.try_into().expect("4 bytes"));
        *self = rest;
        value
    }
}

/// Write access to a growable byte buffer.
pub trait BufMut {
    /// Appends one byte.
    fn put_u8(&mut self, v: u8);

    /// Appends a little-endian `u16`.
    fn put_u16_le(&mut self, v: u16);

    /// Appends a little-endian `u32`.
    fn put_u32_le(&mut self, v: u32);

    /// Appends a little-endian `f32`.
    fn put_f32_le(&mut self, v: f32);

    /// Appends a little-endian `f64`.
    fn put_f64_le(&mut self, v: f64);

    /// Appends a byte slice.
    fn put_slice(&mut self, src: &[u8]);
}

impl BufMut for BytesMut {
    fn put_u8(&mut self, v: u8) {
        self.data.push(v);
    }

    fn put_u16_le(&mut self, v: u16) {
        self.data.extend_from_slice(&v.to_le_bytes());
    }

    fn put_u32_le(&mut self, v: u32) {
        self.data.extend_from_slice(&v.to_le_bytes());
    }

    fn put_f32_le(&mut self, v: f32) {
        self.data.extend_from_slice(&v.to_le_bytes());
    }

    fn put_f64_le(&mut self, v: f64) {
        self.data.extend_from_slice(&v.to_le_bytes());
    }

    fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_roundtrip() {
        let mut buf = BytesMut::with_capacity(19);
        buf.put_u8(7);
        buf.put_u16_le(0xBEEF);
        buf.put_u32_le(0xDEAD_BEEF);
        buf.put_f32_le(0.25);
        buf.put_f64_le(-1.5);
        let frozen = buf.freeze();
        assert_eq!(frozen.len(), 19);
        let mut cursor: &[u8] = &frozen;
        assert_eq!(cursor.get_u8(), 7);
        assert_eq!(cursor.get_u16_le(), 0xBEEF);
        assert_eq!(cursor.get_u32_le(), 0xDEAD_BEEF);
        assert_eq!(f32::from_bits(cursor.get_u32_le()), 0.25);
        assert_eq!(cursor.remaining(), 8);
        assert_eq!(cursor, (-1.5f64).to_le_bytes());
    }

    #[test]
    fn bytes_derefs_to_slice() {
        let b = Bytes::copy_from_slice(&[1, 2, 3]);
        assert_eq!(b.to_vec(), vec![1, 2, 3]);
        assert_eq!(&b[..2], &[1, 2]);
    }

    #[test]
    fn clone_is_refcounted_not_copied() {
        let b = Bytes::copy_from_slice(&[9; 64]);
        let c = b.clone();
        assert_eq!(b, c);
        // Same allocation behind both handles.
        assert!(std::ptr::eq(b.as_ref().as_ptr(), c.as_ref().as_ptr()));
    }

    #[test]
    fn unique_bytes_reclaim_their_storage() {
        let mut buf = BytesMut::with_capacity(128);
        buf.put_slice(&[1, 2, 3]);
        let cap = buf.capacity();
        let frozen = buf.freeze();
        let reclaimed = frozen.try_into_mut().expect("unique handle reclaims");
        assert_eq!(&reclaimed[..], &[1, 2, 3]);
        assert_eq!(reclaimed.capacity(), cap, "capacity survives the roundtrip");
    }

    #[test]
    fn reclaim_freeze_reclaim_keeps_the_block() {
        let mut buf = BytesMut::with_capacity(64);
        buf.put_slice(&[4, 5, 6]);
        let frozen = buf.freeze();
        let block = Arc::as_ptr(&frozen.data);
        let mut reclaimed = frozen.try_into_mut().expect("unique handle reclaims");
        let cap = reclaimed.capacity();
        reclaimed.put_u8(7);
        let refrozen = reclaimed.freeze();
        assert!(
            std::ptr::eq(Arc::as_ptr(&refrozen.data), block),
            "same refcount block"
        );
        assert_eq!(&refrozen[..], &[4, 5, 6, 7]);
        let again = refrozen.try_into_mut().expect("still unique");
        assert_eq!(&again[..], &[4, 5, 6, 7]);
        assert_eq!(again.capacity(), cap, "capacity survives both trips");
    }

    #[test]
    fn a_cloned_bytes_mut_shares_no_shell() {
        let mut buf = BytesMut::with_capacity(16);
        buf.put_slice(&[1, 2]);
        let reclaimed = buf.freeze().try_into_mut().expect("unique handle reclaims");
        let copy = reclaimed.clone();
        assert!(copy.shell.is_none());
        assert_eq!(copy, reclaimed);
        // Both freeze, each into a block of its own.
        let (a, b) = (reclaimed.freeze(), copy.freeze());
        assert_eq!(a, b);
        assert!(!std::ptr::eq(Arc::as_ptr(&a.data), Arc::as_ptr(&b.data)));
    }

    #[test]
    fn shared_bytes_refuse_reclaim() {
        let b = Bytes::copy_from_slice(&[5, 6]);
        let keep = b.clone();
        let back = b.try_into_mut().expect_err("shared handle stays frozen");
        assert_eq!(back, keep);
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut buf = BytesMut::with_capacity(64);
        buf.put_slice(&[0; 40]);
        buf.clear();
        assert!(buf.is_empty());
        assert!(buf.capacity() >= 64);
        buf.reserve(100);
        assert!(buf.capacity() >= 100);
    }
}
