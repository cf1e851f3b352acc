//! `sim_digest`: an FNV-1a fold over the integer-exact simulated outputs
//! a workload can see. Costs enter as nano-USD (rounded once, the same
//! rule the engine's metrics use), times as microseconds.

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A running digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(FNV_OFFSET)
    }
}

impl Digest {
    /// Fold raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    /// Fold an integer.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Fold a dollar amount as integer nano-USD.
    pub fn usd(&mut self, usd: f64) {
        self.u64((usd * 1e9).round() as u64);
    }

    /// Fold a name (length-prefixed, so adjacent names cannot alias).
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}
