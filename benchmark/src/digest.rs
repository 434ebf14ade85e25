//! The `sim_digest`: one 64-bit FNV-1a hash over every simulated statistic
//! a pass produced. Two commits whose digests agree simulated the same
//! machine; a simulator-speed change must leave it unchanged.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }

    /// Floats enter by bit pattern: the simulator's floats are exact
    /// functions of its integer state, so equal runs give equal bits.
    pub fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        self.bytes(&[0xff]);
    }

    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_depends_on_order_and_content() {
        let mut a = Digest::new();
        a.u64(1);
        a.u64(2);
        let mut b = Digest::new();
        b.u64(2);
        b.u64(1);
        assert_ne!(a, b);
        let mut c = Digest::new();
        c.u64(1);
        c.u64(2);
        assert_eq!(a.hex(), c.hex());
        assert_eq!(Digest::new().hex(), "cbf29ce484222325");
    }
}
