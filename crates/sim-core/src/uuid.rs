//! Function-instance identities.
//!
//! SAAF tells function instances apart by a uuid the shim persists in each
//! FI's `/tmp`. The simulator draws one per new FI and copies it into every
//! report that FI serves, so the identity is a plain 128-bit `Copy` value:
//! creating, reporting and deduplicating an FI never allocates. It renders
//! and serializes as the familiar 8-4-4-4-12 lowercase-hex string.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A 128-bit function-instance identity.
///
/// `Display` and `Serialize` write the 36-character canonical form, most
/// significant digit first; the derived order is the numeric order, which
/// equals the order of those strings.
///
/// ```
/// use sky_sim::Uuid;
/// let id = Uuid::from_u128(0x0123_4567_89ab_cdef_0011_2233_4455_6677);
/// assert_eq!(id.to_string(), "01234567-89ab-cdef-0011-223344556677");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Uuid {
    // Two `u64` halves rather than one `u128`, which would raise the
    // alignment of every record holding it to 16 bytes.
    hi: u64,
    lo: u64,
}

/// Length of the canonical text form.
const TEXT_LEN: usize = 36;

/// Positions of the dashes in the canonical text form.
fn is_dash(i: usize) -> bool {
    matches!(i, 8 | 13 | 18 | 23)
}

impl Uuid {
    /// The identity whose 32 hex digits spell `bits`.
    pub const fn from_u128(bits: u128) -> Uuid {
        Uuid {
            hi: (bits >> 64) as u64,
            lo: bits as u64,
        }
    }

    const fn bits(self) -> u128 {
        ((self.hi as u128) << 64) | self.lo as u128
    }

    /// Parse the canonical form only: 32 lowercase hex digits grouped
    /// 8-4-4-4-12 by dashes.
    fn parse(s: &str) -> Option<Uuid> {
        let bytes = s.as_bytes();
        if bytes.len() != TEXT_LEN {
            return None;
        }
        let mut bits = 0u128;
        for (i, &c) in bytes.iter().enumerate() {
            let digit = match c {
                b'-' if is_dash(i) => continue,
                _ if is_dash(i) => return None,
                b'0'..=b'9' => c - b'0',
                b'a'..=b'f' => c - b'a' + 10,
                _ => return None,
            };
            bits = (bits << 4) | u128::from(digit);
        }
        Some(Uuid::from_u128(bits))
    }
}

impl fmt::Display for Uuid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        let bits = self.bits();
        let mut buf = [b'-'; TEXT_LEN];
        let mut shift = 128;
        for (i, byte) in buf.iter_mut().enumerate() {
            if is_dash(i) {
                continue;
            }
            shift -= 4;
            *byte = HEX[(bits >> shift) as usize & 0xf];
        }
        f.pad(std::str::from_utf8(&buf).expect("hex digits and dashes are ASCII"))
    }
}

impl fmt::Debug for Uuid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Uuid({self})")
    }
}

impl Serialize for Uuid {
    fn to_value(&self) -> serde::Value {
        serde::Value::String(self.to_string())
    }
}

impl Deserialize for Uuid {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        let s = v
            .as_str()
            .ok_or_else(|| serde::Error::expected("uuid string", v))?;
        Uuid::parse(s).ok_or_else(|| {
            serde::Error::custom(format!(
                "{s:?} is not a uuid (32 lowercase hex digits grouped 8-4-4-4-12)"
            ))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CANONICAL: &str = "01234567-89ab-cdef-0011-223344556677";

    fn from_json(s: &str) -> Result<Uuid, serde::Error> {
        Uuid::from_value(&serde::Value::String(s.to_owned()))
    }

    #[test]
    fn serializes_as_the_canonical_string() {
        let id = Uuid::from_u128(0x0123_4567_89ab_cdef_0011_2233_4455_6677);
        assert_eq!(
            serde_json::to_string(&id).unwrap(),
            format!("\"{CANONICAL}\"")
        );
        assert_eq!(
            serde_json::from_str::<Uuid>(&format!("\"{CANONICAL}\"")),
            Ok(id)
        );
        assert_eq!(format!("{id:?}"), format!("Uuid({CANONICAL})"));
        assert_eq!(format!("{id:>38}"), format!("  {CANONICAL}"));
    }

    /// Every one-byte edit of a canonical string parses exactly when it is
    /// still canonical, and whatever parses re-renders to itself.
    #[test]
    fn deserialize_accepts_only_the_canonical_form() {
        let edits = b"0123456789abcdefABCDEFgxz-+ _.";
        for i in 0..TEXT_LEN {
            for &c in edits {
                let mut text = CANONICAL.as_bytes().to_vec();
                text[i] = c;
                let text = String::from_utf8(text).unwrap();
                let canonical = if is_dash(i) {
                    c == b'-'
                } else {
                    c.is_ascii_digit() || (b'a'..=b'f').contains(&c)
                };
                match from_json(&text) {
                    Ok(id) => {
                        assert!(canonical, "accepted {text:?}");
                        assert_eq!(id.to_string(), text);
                    }
                    Err(_) => assert!(!canonical, "rejected {text:?}"),
                }
            }
        }
        for bad in [
            "",
            "0123456789abcdef0011223344556677",
            "01234567-89ab-cdef-0011-22334455667",
            "01234567-89ab-cdef-0011-2233445566778",
            "001234567-89ab-cdef-0011-22334455667",
            "+1234567-89ab-cdef-0011-223344556677",
            "0123456-789ab-cdef-0011-223344556677",
            "01234567-89AB-CDEF-0011-223344556677",
            "0123456é-89ab-cdef-0011-22334455667",
        ] {
            assert!(from_json(bad).is_err(), "accepted {bad:?}");
        }
        assert!(Uuid::from_value(&serde::Value::UInt(7)).is_err());
        assert!(serde_json::from_str::<Uuid>("null").is_err());
    }
}
