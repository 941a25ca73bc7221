//! Colors and color scales for visual mappings.
//!
//! The paper's views interpolate linearly between user-chosen endpoint
//! colors ("linearly interpolated from white to blue", §IV-B3) and assign
//! categorical colors per job (green/orange/brown in Fig. 4).

use std::fmt;

/// An sRGB color.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Color {
    /// Red channel.
    pub r: u8,
    /// Green channel.
    pub g: u8,
    /// Blue channel.
    pub b: u8,
}

impl Color {
    /// Construct from channels.
    pub const fn rgb(r: u8, g: u8, b: u8) -> Color {
        Color { r, g, b }
    }

    /// Parse `#rrggbb`, `#rgb`, or a named CSS color used by the paper's
    /// scripts (`white`, `purple`, `steelblue`, `green`, `orange`, `brown`,
    /// and a few more).
    pub fn parse(s: &str) -> Option<Color> {
        let s = s.trim();
        if let Some(hex) = s.strip_prefix('#') {
            return match hex.len() {
                6 => {
                    let v = u32::from_str_radix(hex, 16).ok()?;
                    Some(Color::rgb((v >> 16) as u8, (v >> 8) as u8, v as u8))
                }
                3 => {
                    let v = u32::from_str_radix(hex, 16).ok()?;
                    let (r, g, b) = ((v >> 8) & 0xF, (v >> 4) & 0xF, v & 0xF);
                    Some(Color::rgb((r * 17) as u8, (g * 17) as u8, (b * 17) as u8))
                }
                _ => None,
            };
        }
        let named = match s.to_ascii_lowercase().as_str() {
            "white" => (255, 255, 255),
            "black" => (0, 0, 0),
            "red" => (214, 39, 40),
            "green" => (44, 160, 44),
            "blue" => (31, 119, 180),
            "purple" => (117, 107, 177),
            "steelblue" => (70, 130, 180),
            "orange" => (255, 127, 14),
            "brown" => (140, 86, 75),
            "gray" | "grey" => (127, 127, 127),
            "lightgray" | "lightgrey" => (211, 211, 211),
            "yellow" => (188, 189, 34),
            "pink" => (227, 119, 194),
            "teal" => (23, 190, 207),
            _ => return None,
        };
        Some(Color::rgb(named.0, named.1, named.2))
    }

    /// Linear interpolation toward `other` by `t ∈ [0,1]`.
    pub fn lerp(self, other: Color, t: f64) -> Color {
        let t = t.clamp(0.0, 1.0);
        let mix = |a: u8, b: u8| (a as f64 + (b as f64 - a as f64) * t).round() as u8;
        Color::rgb(mix(self.r, other.r), mix(self.g, other.g), mix(self.b, other.b))
    }

    /// CSS hex form.
    pub fn hex(&self) -> String {
        self.to_string()
    }
}

impl fmt::Display for Color {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{:02x}{:02x}{:02x}", self.r, self.g, self.b)
    }
}

/// A color scale: continuous interpolation through stops, or categorical
/// assignment by index.
#[derive(Clone, Debug, PartialEq)]
pub struct ColorScale {
    stops: Vec<Color>,
}

/// The default sequential scale (white → purple, as in Fig. 5a).
pub const DEFAULT_SEQUENTIAL: [&str; 2] = ["white", "purple"];

/// The paper's categorical job palette (Fig. 4: AMG green, AMR Boxlib
/// orange, MiniFE brown) plus extras for more jobs; the final slot is the
/// idle/proxy gray.
pub const JOB_PALETTE: [&str; 7] =
    ["green", "orange", "brown", "blue", "pink", "teal", "lightgray"];

impl ColorScale {
    /// Build from stops; one stop is a constant scale.
    pub fn new(stops: Vec<Color>) -> ColorScale {
        assert!(!stops.is_empty(), "a color scale needs at least one stop");
        ColorScale { stops }
    }

    /// Build from color names/hex strings, ignoring unparsable entries.
    pub fn from_names(names: &[&str]) -> ColorScale {
        let stops: Vec<Color> = names.iter().filter_map(|n| Color::parse(n)).collect();
        ColorScale::new(if stops.is_empty() {
            vec![Color::rgb(255, 255, 255), Color::rgb(117, 107, 177)]
        } else {
            stops
        })
    }

    /// The default white→purple sequential scale.
    pub fn default_sequential() -> ColorScale {
        ColorScale::from_names(&DEFAULT_SEQUENTIAL)
    }

    /// The categorical job palette.
    pub fn jobs() -> ColorScale {
        ColorScale::from_names(&JOB_PALETTE)
    }

    /// Number of stops.
    pub fn len(&self) -> usize {
        self.stops.len()
    }

    /// Whether the scale has no stops (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.stops.is_empty()
    }

    /// Continuous sample at `t ∈ [0,1]` (piecewise-linear through stops).
    pub fn sample(&self, t: f64) -> Color {
        let n = self.stops.len();
        if n == 1 {
            return self.stops[0];
        }
        let t = t.clamp(0.0, 1.0) * (n - 1) as f64;
        let i = (t as usize).min(n - 2);
        self.stops[i].lerp(self.stops[i + 1], t - i as f64)
    }

    /// Categorical pick: stop `i % len`.
    pub fn pick(&self, i: usize) -> Color {
        self.stops[i % self.stops.len()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_hex_and_names() {
        assert_eq!(Color::parse("#ff0000"), Some(Color::rgb(255, 0, 0)));
        assert_eq!(Color::parse("#fff"), Some(Color::rgb(255, 255, 255)));
        assert_eq!(Color::parse("steelblue"), Some(Color::rgb(70, 130, 180)));
        assert_eq!(Color::parse("White"), Some(Color::rgb(255, 255, 255)));
        assert_eq!(Color::parse("notacolor"), None);
        assert_eq!(Color::parse("#12345"), None);
    }

    #[test]
    fn lerp_endpoints_and_midpoint() {
        let w = Color::rgb(255, 255, 255);
        let b = Color::rgb(0, 0, 0);
        assert_eq!(w.lerp(b, 0.0), w);
        assert_eq!(w.lerp(b, 1.0), b);
        assert_eq!(w.lerp(b, 0.5), Color::rgb(128, 128, 128));
        // Out-of-range t clamps.
        assert_eq!(w.lerp(b, 2.0), b);
    }

    #[test]
    fn hex_roundtrip() {
        let c = Color::rgb(70, 130, 180);
        assert_eq!(c.hex(), "#4682b4");
        assert_eq!(Color::parse(&c.hex()), Some(c));
        assert_eq!(c.to_string(), "#4682b4");
    }

    #[test]
    fn scale_samples_through_stops() {
        let s = ColorScale::from_names(&["white", "purple"]);
        assert_eq!(s.sample(0.0), Color::parse("white").unwrap());
        assert_eq!(s.sample(1.0), Color::parse("purple").unwrap());
        let mid = s.sample(0.5);
        assert!(mid.r > 117 && mid.r < 255);
    }

    #[test]
    fn three_stop_scale_hits_middle_stop() {
        let s = ColorScale::from_names(&["white", "red", "black"]);
        assert_eq!(s.sample(0.5), Color::parse("red").unwrap());
    }

    #[test]
    fn categorical_pick_wraps() {
        let s = ColorScale::jobs();
        assert_eq!(s.pick(0), Color::parse("green").unwrap());
        assert_eq!(s.pick(s.len()), s.pick(0));
    }

    #[test]
    fn bad_names_fall_back() {
        let s = ColorScale::from_names(&["nope", "alsono"]);
        assert_eq!(s.len(), 2); // fallback default
    }

    #[test]
    #[should_panic(expected = "at least one stop")]
    fn empty_scale_rejected() {
        ColorScale::new(vec![]);
    }
}
