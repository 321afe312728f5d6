//! The codec abstraction used by `RegionUpdate` payloads, and the RTP
//! payload-type registry negotiated in SDP.
//!
//! Draft §5.2.2: "The 7 bit PT field carries the actual payload type of the
//! content which can be PNG, JPEG, Theora, or any other media type which has
//! an RTP payload specification. All AH and participant software
//! implementations MUST support PNG images."

use crate::dct;
use crate::deflate::Level;
use crate::image::{Image, BYTES_PER_PIXEL};
use crate::png::{self, PngOptions};
use crate::rle;
use crate::{Error, Result};

/// The codecs this implementation ships.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CodecKind {
    /// Uncompressed RGBA (width/height header + raw pixels).
    Raw,
    /// PNG — the mandatory lossless codec.
    Png,
    /// Block-DCT lossy codec (the "JPEG" role).
    Dct,
    /// Run-length encoding (the VNC-style baseline).
    Rle,
}

impl CodecKind {
    /// All kinds, in registry order.
    pub const ALL: [CodecKind; 4] = [
        CodecKind::Raw,
        CodecKind::Png,
        CodecKind::Dct,
        CodecKind::Rle,
    ];

    /// The SDP encoding name for this codec.
    pub fn encoding_name(self) -> &'static str {
        match self {
            CodecKind::Raw => "raw",
            CodecKind::Png => "png",
            CodecKind::Dct => "dct",
            CodecKind::Rle => "rle",
        }
    }

    /// Parse from an SDP encoding name (case-insensitive).
    pub fn from_encoding_name(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "raw" => Some(CodecKind::Raw),
            "png" => Some(CodecKind::Png),
            "dct" | "jpeg" => Some(CodecKind::Dct),
            "rle" => Some(CodecKind::Rle),
            _ => None,
        }
    }

    /// Whether decoding recovers the exact input pixels.
    pub fn lossless(self) -> bool {
        !matches!(self, CodecKind::Dct)
    }
}

/// Encoding parameters.
#[derive(Debug, Clone, Copy)]
pub struct EncodeOptions {
    /// DEFLATE effort for PNG.
    pub level: Level,
    /// Quality 1..=100 for the lossy codec.
    pub quality: u8,
}

impl Default for EncodeOptions {
    fn default() -> Self {
        EncodeOptions {
            level: Level::Default,
            quality: 75,
        }
    }
}

/// A payload image codec.
pub trait Codec {
    /// Which codec this is.
    fn kind(&self) -> CodecKind;
    /// Encode an image to payload bytes.
    fn encode(&self, img: &Image) -> Vec<u8>;
    /// Decode payload bytes back to an image.
    fn decode(&self, data: &[u8]) -> Result<Image>;
    /// The width and height `data` declares, from its header alone — what
    /// [`Codec::decode`] would allocate pixels for, known before it does.
    fn dims(&self, data: &[u8]) -> Result<(u32, u32)>;
}

/// Unified codec implementation parameterised by kind.
#[derive(Debug, Clone, Copy)]
pub struct AnyCodec {
    kind: CodecKind,
    opts: EncodeOptions,
}

impl AnyCodec {
    /// Create a codec of the given kind with default options.
    pub fn new(kind: CodecKind) -> Self {
        AnyCodec {
            kind,
            opts: EncodeOptions::default(),
        }
    }

    /// Create with explicit options.
    pub fn with_options(kind: CodecKind, opts: EncodeOptions) -> Self {
        AnyCodec { kind, opts }
    }
}

impl Codec for AnyCodec {
    fn kind(&self) -> CodecKind {
        self.kind
    }

    fn encode(&self, img: &Image) -> Vec<u8> {
        match self.kind {
            CodecKind::Raw => {
                let pixels = img.width() as usize * img.height() as usize * BYTES_PER_PIXEL;
                let mut out = Vec::with_capacity(pixels + 12);
                out.extend_from_slice(b"ARAW");
                out.extend_from_slice(&img.width().to_be_bytes());
                out.extend_from_slice(&img.height().to_be_bytes());
                for y in 0..img.height() {
                    out.extend_from_slice(img.row(y));
                }
                out
            }
            CodecKind::Png => {
                // RGB is smaller, but only lossless when the image is fully
                // opaque (the common case for screen content); otherwise
                // keep the alpha channel.
                let opaque = (0..img.height())
                    .all(|y| img.row(y).iter().skip(3).step_by(4).all(|&a| a == 255));
                let color = if opaque {
                    png::PngColor::Rgb
                } else {
                    png::PngColor::Rgba
                };
                png::encode(
                    img,
                    PngOptions {
                        color,
                        level: self.opts.level,
                    },
                )
            }
            CodecKind::Dct => dct::encode(img, self.opts.quality),
            CodecKind::Rle => rle::encode(img),
        }
    }

    fn decode(&self, data: &[u8]) -> Result<Image> {
        match self.kind {
            CodecKind::Raw => {
                let (w, h) = raw_dims(data)?;
                Image::from_rgba(w, h, data[12..].to_vec())
            }
            CodecKind::Png => png::decode(data),
            CodecKind::Dct => dct::decode(data),
            CodecKind::Rle => rle::decode(data),
        }
    }

    fn dims(&self, data: &[u8]) -> Result<(u32, u32)> {
        match self.kind {
            CodecKind::Raw => raw_dims(data),
            CodecKind::Png => png::dims(data),
            CodecKind::Dct => dct::dims(data),
            CodecKind::Rle => rle::dims(data),
        }
    }
}

/// The size a raw payload's 12-byte header declares.
fn raw_dims(data: &[u8]) -> Result<(u32, u32)> {
    if data.len() < 12 || &data[..4] != b"ARAW" {
        return Err(Error::Invalid {
            what: "raw image",
            detail: "bad header",
        });
    }
    let w = u32::from_be_bytes([data[4], data[5], data[6], data[7]]);
    let h = u32::from_be_bytes([data[8], data[9], data[10], data[11]]);
    Ok((w, h))
}

/// Maps RTP payload-type values (the 7-bit PT in the RegionUpdate parameter
/// field) to codecs, as negotiated in SDP.
#[derive(Debug, Clone)]
pub struct CodecRegistry {
    entries: Vec<(u8, AnyCodec)>,
}

/// Default dynamic payload-type assignments used by this implementation's
/// SDP offers (the draft's §10.3 example uses the dynamic range 96–127).
pub mod default_pt {
    /// PNG payload type.
    pub const PNG: u8 = 101;
    /// Lossy DCT payload type.
    pub const DCT: u8 = 102;
    /// RLE payload type.
    pub const RLE: u8 = 103;
    /// Raw payload type.
    pub const RAW: u8 = 104;
}

impl Default for CodecRegistry {
    fn default() -> Self {
        let mut r = CodecRegistry {
            entries: Vec::new(),
        };
        r.register(default_pt::PNG, AnyCodec::new(CodecKind::Png));
        r.register(default_pt::DCT, AnyCodec::new(CodecKind::Dct));
        r.register(default_pt::RLE, AnyCodec::new(CodecKind::Rle));
        r.register(default_pt::RAW, AnyCodec::new(CodecKind::Raw));
        r
    }
}

impl CodecRegistry {
    /// An empty registry.
    pub fn empty() -> Self {
        CodecRegistry {
            entries: Vec::new(),
        }
    }

    /// Register (or replace) a codec under an RTP payload type.
    pub fn register(&mut self, pt: u8, codec: AnyCodec) {
        let pt = pt & 0x7f;
        if let Some(slot) = self.entries.iter_mut().find(|(p, _)| *p == pt) {
            slot.1 = codec;
        } else {
            self.entries.push((pt, codec));
        }
    }

    /// Look up the codec for a payload type.
    pub fn get(&self, pt: u8) -> Option<&AnyCodec> {
        self.entries
            .iter()
            .find(|(p, _)| *p == (pt & 0x7f))
            .map(|(_, c)| c)
    }

    /// Find the payload type assigned to a codec kind.
    pub fn pt_for(&self, kind: CodecKind) -> Option<u8> {
        self.entries
            .iter()
            .find(|(_, c)| c.kind() == kind)
            .map(|(p, _)| *p)
    }

    /// Registered (pt, kind) pairs.
    pub fn list(&self) -> impl Iterator<Item = (u8, CodecKind)> + '_ {
        self.entries.iter().map(|(p, c)| (*p, c.kind()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::Rect;

    fn sample() -> Image {
        let mut img = Image::filled(40, 30, [230, 230, 230, 255]).unwrap();
        img.fill_rect(Rect::new(5, 5, 20, 10), [40, 80, 160, 255]);
        img
    }

    #[test]
    fn lossless_kinds_round_trip_exactly() {
        let img = sample();
        for kind in CodecKind::ALL {
            let codec = AnyCodec::new(kind);
            let enc = codec.encode(&img);
            let back = codec.decode(&enc).unwrap();
            if kind.lossless() {
                assert_eq!(back, img, "{kind:?}");
            } else {
                assert!(img.mean_abs_error(&back) < 12.0, "{kind:?}");
            }
        }
    }

    #[test]
    fn registry_defaults() {
        let reg = CodecRegistry::default();
        assert_eq!(reg.get(default_pt::PNG).unwrap().kind(), CodecKind::Png);
        assert_eq!(reg.pt_for(CodecKind::Dct), Some(default_pt::DCT));
        assert!(reg.get(42).is_none());
        assert_eq!(reg.list().count(), 4);
    }

    #[test]
    fn registry_replace() {
        let mut reg = CodecRegistry::empty();
        reg.register(100, AnyCodec::new(CodecKind::Png));
        reg.register(100, AnyCodec::new(CodecKind::Rle));
        assert_eq!(reg.get(100).unwrap().kind(), CodecKind::Rle);
        assert_eq!(reg.list().count(), 1);
    }

    #[test]
    fn encoding_names_round_trip() {
        for kind in CodecKind::ALL {
            assert_eq!(
                CodecKind::from_encoding_name(kind.encoding_name()),
                Some(kind)
            );
        }
        assert_eq!(CodecKind::from_encoding_name("jpeg"), Some(CodecKind::Dct));
        assert_eq!(CodecKind::from_encoding_name("h264"), None);
    }

    #[test]
    fn dims_read_the_header_of_every_kind_and_refuse_what_decode_refuses() {
        let img = sample();
        for kind in CodecKind::ALL {
            let codec = AnyCodec::new(kind);
            let enc = codec.encode(&img);
            assert_eq!(codec.dims(&enc).unwrap(), (40, 30), "{kind:?}");
            assert!(codec.dims(&enc[..8]).is_err(), "{kind:?} truncated");
            assert!(codec.dims(b"nonsense header!").is_err(), "{kind:?}");
        }
        // A header past what any image may be is refused by the header
        // alone, whatever follows it.
        let mut rle = AnyCodec::new(CodecKind::Rle).encode(&img);
        rle[4..8].copy_from_slice(&100_000u32.to_be_bytes());
        assert!(AnyCodec::new(CodecKind::Rle).dims(&rle).is_err());
        let mut dct = AnyCodec::new(CodecKind::Dct).encode(&img);
        dct[4..12].copy_from_slice(&[0, 0, 0x40, 0, 0, 0, 0x40, 0]);
        assert!(AnyCodec::new(CodecKind::Dct).dims(&dct).is_err());
        let mut png = AnyCodec::new(CodecKind::Png).encode(&img);
        png[16..24].copy_from_slice(&[0, 0, 0x40, 0, 0, 0, 0x40, 0]);
        assert!(AnyCodec::new(CodecKind::Png).dims(&png).is_err());
        // The size is only a claim: a body that does not back it is still
        // decode's to refuse.
        let mut short = AnyCodec::new(CodecKind::Rle).encode(&img);
        short.truncate(20);
        assert_eq!(
            AnyCodec::new(CodecKind::Rle).dims(&short).unwrap(),
            (40, 30)
        );
        assert!(AnyCodec::new(CodecKind::Rle).decode(&short).is_err());
    }

    #[test]
    fn raw_codec_header_checked() {
        let codec = AnyCodec::new(CodecKind::Raw);
        assert!(codec.decode(b"nope").is_err());
        assert!(codec
            .decode(b"ARAW\x00\x00\x00\x02\x00\x00\x00\x02xx")
            .is_err());
    }

    #[test]
    fn size_ordering_on_ui_content() {
        // On synthetic UI content: PNG < RLE < RAW (draft §4.2 rationale).
        let img = sample();
        let png = AnyCodec::new(CodecKind::Png).encode(&img).len();
        let rle = AnyCodec::new(CodecKind::Rle).encode(&img).len();
        let raw = AnyCodec::new(CodecKind::Raw).encode(&img).len();
        assert!(png < rle, "png {png} < rle {rle}");
        assert!(rle < raw, "rle {rle} < raw {raw}");
    }
}
