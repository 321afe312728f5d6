//! Image payload codecs for the application/desktop sharing protocol.
//!
//! The draft (§4.2) lets a `RegionUpdate` carry "PNG, JPEG, JPEG 2000, Theora
//! or other media types", and mandates that "All AH and participant software
//! implementations MUST support PNG images". This crate provides:
//!
//! * [`image::Image`] — the RGBA framebuffer type shared by the whole
//!   workspace (blitting, cropping, rectangle moves, comparison).
//! * [`deflate`] — a from-scratch DEFLATE (RFC 1951) implementation: full
//!   inflate, and deflate with stored, fixed-Huffman and dynamic-Huffman
//!   blocks over an LZ77 hash-chain matcher.
//! * [`zlib`] — the RFC 1950 wrapper (header + Adler-32) used by PNG.
//! * [`png`] — PNG (RFC 2083-era subset: 8-bit RGB/RGBA, all five scanline
//!   filters with a heuristic chooser) standing in for
//!   `draft-boyaci-avt-png`.
//! * [`dct`] — a quality-parameterised 8×8 block-DCT lossy codec standing in
//!   for JPEG: same architecture (colour transform, DCT, quantisation,
//!   zigzag, entropy coding), small enough to audit.
//! * [`rle`] — per-row run-length encoding of raw pixels, the VNC-style
//!   baseline codec.
//! * [`codec`] — the [`codec::Codec`] trait, concrete codec implementations
//!   and the RTP payload-type registry used in SDP negotiation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checksum;
pub mod classify;
pub mod codec;
pub mod dct;
pub mod deflate;
pub mod error;
pub mod image;
pub mod png;
pub mod rle;
mod working_set;
pub mod zlib;

pub use classify::{classify, ContentClass};
pub use codec::{Codec, CodecKind, CodecRegistry};
pub use error::Error;
pub use image::{Image, Rect};

/// Result alias used throughout this crate.
pub type Result<T> = std::result::Result<T, Error>;
