//! Pixel types and conversions.
//!
//! All pixel types are `Copy`, `Pod`-like (no padding surprises matter
//! here since we never transmute), and convertible to/from a canonical
//! floating-point representation via the [`Pixel`] trait. The canonical
//! space is linear intensity in `[0, 1]` per channel; 8/16-bit types are
//! treated as already-linear (the synthetic scenes are generated in
//! linear space, so no gamma handling is required anywhere in the
//! workspace).

/// A pixel sample that the correction kernels can interpolate.
///
/// The contract is simple: a pixel exposes a fixed number of channels,
/// can be converted to/from `f32` channel values in `[0,1]`, and has a
/// "black" value used for out-of-image regions (the black borders the
/// paper's corrected frames show).
pub trait Pixel: Copy + PartialEq + std::fmt::Debug + Send + Sync + 'static {
    /// Number of channels (1 for grayscale, 3 for RGB).
    const CHANNELS: usize;

    /// The all-zero pixel used for unmapped output regions.
    const BLACK: Self;

    /// Smallest value a channel can represent in the canonical float
    /// space. Quantized types are bounded by `[0, 1]`; float types are
    /// unbounded (they may carry data in native units, e.g. 0–255, or
    /// intermediate results outside `[0, 1]`), so interpolators must
    /// clamp to *this* range, not a hard-coded `[0, 1]`.
    const CHANNEL_MIN: f32;

    /// Largest value a channel can represent in the canonical float
    /// space (see [`Pixel::CHANNEL_MIN`]).
    const CHANNEL_MAX: f32;

    /// Read channel `c` as a float in `[0, 1]`.
    fn channel_f32(&self, c: usize) -> f32;

    /// Build a pixel from per-channel floats in `[0, 1]`.
    /// Values outside the range are clamped.
    fn from_channels_f32(ch: &[f32]) -> Self;

    /// Convert to a grayscale float via the Rec.601 luma weights
    /// (or identity for grayscale types).
    fn luma(&self) -> f32;
}

/// Quantize a float in `[0,1]` to a `u8` with rounding.
#[inline]
pub fn quantize_u8(v: f32) -> u8 {
    (v.clamp(0.0, 1.0) * 255.0 + 0.5) as u8
}

/// Quantize a float in `[0,1]` to a `u16` with rounding.
#[inline]
pub fn quantize_u16(v: f32) -> u16 {
    (v.clamp(0.0, 1.0) * 65535.0 + 0.5) as u16
}

/// 8-bit grayscale pixel (the paper's kernels operate on luminance
/// planes; chroma is processed identically, so most experiments use
/// this type).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Hash, PartialOrd, Ord)]
pub struct Gray8(pub u8);

/// 16-bit grayscale pixel, used by the fixed-point accuracy study
/// to provide headroom beyond 8 bits.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Hash, PartialOrd, Ord)]
pub struct Gray16(pub u16);

/// 32-bit float grayscale pixel; the reference ("golden") arithmetic
/// path every other datapath is compared against.
#[derive(Clone, Copy, PartialEq, Debug, Default, PartialOrd)]
pub struct GrayF32(pub f32);

/// 8-bit RGB pixel.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Hash)]
pub struct Rgb8 {
    pub r: u8,
    pub g: u8,
    pub b: u8,
}

/// Float RGB pixel.
#[derive(Clone, Copy, PartialEq, Debug, Default)]
pub struct RgbF32 {
    pub r: f32,
    pub g: f32,
    pub b: f32,
}

impl Rgb8 {
    /// Construct from channel bytes.
    #[inline]
    pub const fn new(r: u8, g: u8, b: u8) -> Self {
        Self { r, g, b }
    }
}

impl RgbF32 {
    /// Construct from channel floats.
    #[inline]
    pub const fn new(r: f32, g: f32, b: f32) -> Self {
        Self { r, g, b }
    }
}

/// `v as f32 / 255.0` for every byte, evaluated once at compile time
/// with the same IEEE division: samplers read each byte tap as a load
/// instead of a division per tap.
static UNIT_U8: [f32; 256] = {
    let mut t = [0f32; 256];
    let mut v = 0;
    while v < 256 {
        t[v] = v as f32 / 255.0;
        v += 1;
    }
    t
};

impl Pixel for Gray8 {
    const CHANNELS: usize = 1;
    const BLACK: Self = Gray8(0);
    const CHANNEL_MIN: f32 = 0.0;
    const CHANNEL_MAX: f32 = 1.0;

    #[inline]
    fn channel_f32(&self, _c: usize) -> f32 {
        UNIT_U8[self.0 as usize]
    }

    #[inline]
    fn from_channels_f32(ch: &[f32]) -> Self {
        Gray8(quantize_u8(ch[0]))
    }

    #[inline]
    fn luma(&self) -> f32 {
        self.0 as f32 / 255.0
    }
}

impl Pixel for Gray16 {
    const CHANNELS: usize = 1;
    const BLACK: Self = Gray16(0);
    const CHANNEL_MIN: f32 = 0.0;
    const CHANNEL_MAX: f32 = 1.0;

    #[inline]
    fn channel_f32(&self, _c: usize) -> f32 {
        self.0 as f32 / 65535.0
    }

    #[inline]
    fn from_channels_f32(ch: &[f32]) -> Self {
        Gray16(quantize_u16(ch[0]))
    }

    #[inline]
    fn luma(&self) -> f32 {
        self.0 as f32 / 65535.0
    }
}

impl Pixel for GrayF32 {
    const CHANNELS: usize = 1;
    const BLACK: Self = GrayF32(0.0);
    const CHANNEL_MIN: f32 = f32::NEG_INFINITY;
    const CHANNEL_MAX: f32 = f32::INFINITY;

    #[inline]
    fn channel_f32(&self, _c: usize) -> f32 {
        self.0
    }

    #[inline]
    fn from_channels_f32(ch: &[f32]) -> Self {
        GrayF32(ch[0])
    }

    #[inline]
    fn luma(&self) -> f32 {
        self.0
    }
}

impl Pixel for Rgb8 {
    const CHANNELS: usize = 3;
    const BLACK: Self = Rgb8 { r: 0, g: 0, b: 0 };
    const CHANNEL_MIN: f32 = 0.0;
    const CHANNEL_MAX: f32 = 1.0;

    #[inline]
    fn channel_f32(&self, c: usize) -> f32 {
        let v = match c {
            0 => self.r,
            1 => self.g,
            _ => self.b,
        };
        v as f32 / 255.0
    }

    #[inline]
    fn from_channels_f32(ch: &[f32]) -> Self {
        Rgb8 {
            r: quantize_u8(ch[0]),
            g: quantize_u8(ch[1]),
            b: quantize_u8(ch[2]),
        }
    }

    #[inline]
    fn luma(&self) -> f32 {
        (0.299 * self.r as f32 + 0.587 * self.g as f32 + 0.114 * self.b as f32) / 255.0
    }
}

impl Pixel for RgbF32 {
    const CHANNELS: usize = 3;
    const BLACK: Self = RgbF32 {
        r: 0.0,
        g: 0.0,
        b: 0.0,
    };
    const CHANNEL_MIN: f32 = f32::NEG_INFINITY;
    const CHANNEL_MAX: f32 = f32::INFINITY;

    #[inline]
    fn channel_f32(&self, c: usize) -> f32 {
        match c {
            0 => self.r,
            1 => self.g,
            _ => self.b,
        }
    }

    #[inline]
    fn from_channels_f32(ch: &[f32]) -> Self {
        RgbF32 {
            r: ch[0],
            g: ch[1],
            b: ch[2],
        }
    }

    #[inline]
    fn luma(&self) -> f32 {
        0.299 * self.r + 0.587 * self.g + 0.114 * self.b
    }
}

// --- conversions between pixel types ---------------------------------

impl From<Gray8> for GrayF32 {
    #[inline]
    fn from(p: Gray8) -> Self {
        GrayF32(p.0 as f32 / 255.0)
    }
}

impl From<GrayF32> for Gray8 {
    #[inline]
    fn from(p: GrayF32) -> Self {
        Gray8(quantize_u8(p.0))
    }
}

impl From<Gray8> for Gray16 {
    /// Bit-replicating widening (0xAB -> 0xABAB), the standard exact
    /// 8→16 scale so that 0xFF maps to 0xFFFF.
    #[inline]
    fn from(p: Gray8) -> Self {
        Gray16(((p.0 as u16) << 8) | p.0 as u16)
    }
}

impl From<Gray16> for Gray8 {
    #[inline]
    fn from(p: Gray16) -> Self {
        Gray8((p.0 >> 8) as u8)
    }
}

impl From<Rgb8> for RgbF32 {
    #[inline]
    fn from(p: Rgb8) -> Self {
        RgbF32 {
            r: p.r as f32 / 255.0,
            g: p.g as f32 / 255.0,
            b: p.b as f32 / 255.0,
        }
    }
}

impl From<RgbF32> for Rgb8 {
    #[inline]
    fn from(p: RgbF32) -> Self {
        Rgb8 {
            r: quantize_u8(p.r),
            g: quantize_u8(p.g),
            b: quantize_u8(p.b),
        }
    }
}

impl From<Gray8> for Rgb8 {
    #[inline]
    fn from(p: Gray8) -> Self {
        Rgb8 {
            r: p.0,
            g: p.0,
            b: p.0,
        }
    }
}

impl From<Rgb8> for Gray8 {
    #[inline]
    fn from(p: Rgb8) -> Self {
        Gray8(quantize_u8(p.luma()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gray8_channel_table_is_the_division() {
        for v in 0..=255u8 {
            let want = v as f32 / 255.0;
            assert_eq!(Gray8(v).channel_f32(0).to_bits(), want.to_bits(), "{v}");
        }
    }

    #[test]
    fn quantize_u8_rounds_and_clamps() {
        assert_eq!(quantize_u8(0.0), 0);
        assert_eq!(quantize_u8(1.0), 255);
        assert_eq!(quantize_u8(-0.5), 0);
        assert_eq!(quantize_u8(2.0), 255);
        // 0.5/255 boundary: 127.5 rounds to 128
        assert_eq!(quantize_u8(0.5), 128);
    }

    #[test]
    fn quantize_u16_full_range() {
        assert_eq!(quantize_u16(0.0), 0);
        assert_eq!(quantize_u16(1.0), 65535);
        assert_eq!(quantize_u16(0.5), 32768);
    }

    #[test]
    fn gray8_roundtrip_through_f32() {
        for v in 0..=255u8 {
            let g = Gray8(v);
            let f: GrayF32 = g.into();
            let back: Gray8 = f.into();
            assert_eq!(g, back, "value {v} failed to round-trip");
        }
    }

    #[test]
    fn gray16_widening_is_exact_at_ends() {
        let lo: Gray16 = Gray8(0).into();
        let hi: Gray16 = Gray8(255).into();
        assert_eq!(lo.0, 0);
        assert_eq!(hi.0, 0xFFFF);
        // and narrows back exactly for all bytes
        for v in 0..=255u8 {
            let wide: Gray16 = Gray8(v).into();
            let back: Gray8 = wide.into();
            assert_eq!(back.0, v);
        }
    }

    #[test]
    fn rgb_luma_weights_sum_to_one() {
        let white = Rgb8::new(255, 255, 255);
        assert!((white.luma() - 1.0).abs() < 1e-5);
        let black = Rgb8::new(0, 0, 0);
        assert_eq!(black.luma(), 0.0);
    }

    #[test]
    fn rgb8_roundtrip_through_f32() {
        let p = Rgb8::new(12, 200, 97);
        let f: RgbF32 = p.into();
        let back: Rgb8 = f.into();
        assert_eq!(p, back);
    }

    #[test]
    fn pixel_trait_channel_access_rgb() {
        let p = Rgb8::new(255, 0, 128);
        assert!((p.channel_f32(0) - 1.0).abs() < 1e-6);
        assert_eq!(p.channel_f32(1), 0.0);
        assert!((p.channel_f32(2) - 128.0 / 255.0).abs() < 1e-6);
    }

    #[test]
    fn from_channels_clamps() {
        let p = Gray8::from_channels_f32(&[1.7]);
        assert_eq!(p.0, 255);
        let p = Gray8::from_channels_f32(&[-0.3]);
        assert_eq!(p.0, 0);
    }

    #[test]
    fn black_constants() {
        assert_eq!(Gray8::BLACK.0, 0);
        assert_eq!(Rgb8::BLACK, Rgb8::new(0, 0, 0));
        assert_eq!(GrayF32::BLACK.0, 0.0);
    }

    #[test]
    fn gray_to_rgb_is_neutral() {
        let g = Gray8(77);
        let c: Rgb8 = g.into();
        assert_eq!(c.r, c.g);
        assert_eq!(c.g, c.b);
        assert_eq!(c.r, 77);
        // and back via luma
        let back: Gray8 = c.into();
        assert_eq!(back.0, 77);
    }
}
