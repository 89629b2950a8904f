//! Inputs and the key model the outputs are checked against.
//!
//! Every input is drawn from a seeded splitmix64 stream, so one seed
//! gives one op sequence. Each client connection owns a disjoint slice
//! of the key space (`base + rank·conns + conn`), which lets a
//! connection keep an exact model of its own keys while other
//! connections run concurrently.

use std::collections::BTreeMap;

/// splitmix64: small, seedable, and good enough for workload shaping.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`; `stream` separates independent consumers of
    /// one seed (connections, rounds).
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Zipfian ranks over `[0, n)` (Gray et al.'s method, as YCSB draws
/// them): rank 0 is the hottest.
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    /// A distribution over `n ≥ 1` ranks with skew `theta ∈ (0, 1)`.
    pub fn new(n: u64, theta: f64) -> Zipf {
        assert!(n >= 1 && theta > 0.0 && theta < 1.0);
        let zeta = |k: u64| (1..=k).map(|i| 1.0 / (i as f64).powf(theta)).sum::<f64>();
        let zetan = zeta(n);
        Zipf {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta(2) / zetan),
        }
    }

    /// Next rank.
    pub fn sample(&self, rng: &mut Rng) -> u64 {
        let u = rng.unit();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        let v = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        v.min(self.n - 1)
    }
}

/// A stored value in the shape the PM apps keep: `len` copies of
/// `fill`. `fill` is never 0xFF (the apps' miss sentinel byte) and
/// `len` stays within the apps' 160-byte data cap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Value {
    /// Fill byte.
    pub fill: u8,
    /// Length in bytes.
    pub len: u8,
}

/// Longest value the apps store.
pub const VALUE_CAP: u8 = 160;

impl Value {
    /// Builds a value; panics on a shape the apps cannot hold.
    pub fn new(fill: u8, len: u8) -> Value {
        assert!(fill != 0xFF && (1..=VALUE_CAP).contains(&len));
        Value { fill, len }
    }

    /// The wire bytes.
    pub fn bytes(&self) -> Vec<u8> {
        vec![self.fill; self.len as usize]
    }

    /// Whether `bytes` is exactly this value.
    pub fn matches(&self, bytes: &[u8]) -> bool {
        bytes.len() == self.len as usize && bytes.iter().all(|&b| b == self.fill)
    }
}

/// One client operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Read one key.
    Get(u64),
    /// Write one key.
    Set(u64, Value),
}

/// How keys are drawn.
#[derive(Debug, Clone)]
pub enum KeyDist {
    /// Every rank equally likely.
    Uniform,
    /// Zipfian over the ranks.
    Zipf(Zipf),
}

/// Shape of one connection's traffic.
#[derive(Debug, Clone)]
pub struct Mix {
    /// First key of the workload's key space.
    pub base: u64,
    /// Connections sharing the key space.
    pub conns: u64,
    /// Keys each connection owns.
    pub keys_per_conn: u64,
    /// Percentage of gets.
    pub read_pct: u64,
    /// Key popularity.
    pub dist: KeyDist,
    /// Value lengths are drawn uniformly from this inclusive range.
    pub len: (u8, u8),
}

impl Mix {
    /// The key of `rank` owned by connection `conn`.
    pub fn key(&self, conn: u64, rank: u64) -> u64 {
        self.base + rank * self.conns + conn
    }

    /// A random value of the mix's shape.
    pub fn value(&self, rng: &mut Rng) -> Value {
        let (lo, hi) = self.len;
        let len = lo + rng.below(u64::from(hi - lo) + 1) as u8;
        Value::new(1 + rng.below(0xFE) as u8, len)
    }

    /// The next op of connection `conn`.
    pub fn next_op(&self, conn: u64, rng: &mut Rng) -> Op {
        let rank = match &self.dist {
            KeyDist::Uniform => rng.below(self.keys_per_conn),
            KeyDist::Zipf(z) => z.sample(rng),
        };
        let key = self.key(conn, rank);
        if rng.below(100) < self.read_pct {
            Op::Get(key)
        } else {
            Op::Set(key, self.value(rng))
        }
    }
}

/// What one connection expects its keys to hold: the last value each
/// was acknowledged with.
#[derive(Debug, Clone, Default)]
pub struct KeyModel {
    acked: BTreeMap<u64, Value>,
}

impl KeyModel {
    /// Records an acknowledged set.
    pub fn ack_set(&mut self, key: u64, v: Value) {
        self.acked.insert(key, v);
    }

    /// The value `key` must read back as.
    pub fn expect(&self, key: u64) -> Option<Value> {
        self.acked.get(&key).copied()
    }

    /// Whether a get reply (`None` = miss) agrees with the model.
    pub fn check_get(&self, key: u64, got: Option<&[u8]>) -> bool {
        match (self.expect(key), got) {
            (Some(v), Some(bytes)) => v.matches(bytes),
            (None, None) => true,
            _ => false,
        }
    }

    /// Every modelled key, in key order.
    pub fn keys(&self) -> impl Iterator<Item = (u64, Value)> + '_ {
        self.acked.iter().map(|(&k, &v)| (k, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mix(dist: KeyDist) -> Mix {
        Mix {
            base: 1000,
            conns: 2,
            keys_per_conn: 256,
            read_pct: 90,
            dist,
            len: (8, 64),
        }
    }

    #[test]
    fn same_seed_same_stream() {
        let m = mix(KeyDist::Zipf(Zipf::new(256, 0.99)));
        let draw = |seed| {
            let mut r = Rng::new(seed, 0);
            (0..200).map(|_| m.next_op(0, &mut r)).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    /// The connection that owns `key`, if it is in the key space.
    fn owner(m: &Mix, key: u64) -> Option<u64> {
        let off = key.checked_sub(m.base)?;
        (off / m.conns < m.keys_per_conn).then_some(off % m.conns)
    }

    #[test]
    fn connections_own_disjoint_keys() {
        let m = mix(KeyDist::Uniform);
        for conn in 0..2 {
            let mut r = Rng::new(3, conn);
            for _ in 0..2000 {
                let key = match m.next_op(conn, &mut r) {
                    Op::Get(k) | Op::Set(k, _) => k,
                };
                assert_eq!(owner(&m, key), Some(conn));
            }
        }
        assert_eq!(owner(&m, 999), None);
        assert_eq!(owner(&m, 1000 + 512), None);
    }

    #[test]
    fn values_keep_the_apps_shape() {
        let m = mix(KeyDist::Uniform);
        let mut r = Rng::new(11, 0);
        for _ in 0..5000 {
            let v = m.value(&mut r);
            assert!(v.fill != 0xFF && v.fill != 0);
            assert!((8..=64).contains(&v.len));
            assert!(v.matches(&v.bytes()));
        }
    }

    #[test]
    fn zipf_is_skewed_toward_low_ranks() {
        let z = Zipf::new(256, 0.99);
        let mut r = Rng::new(5, 0);
        let mut counts = [0u32; 256];
        for _ in 0..20_000 {
            counts[z.sample(&mut r) as usize] += 1;
        }
        assert!(counts[0] > counts[10] && counts[10] > counts[200]);
        assert!(counts[0] > 20_000 / 20, "rank 0 takes a large share");
    }

    #[test]
    fn model_tracks_the_last_acknowledged_value() {
        let mut m = KeyModel::default();
        assert!(m.check_get(5, None));
        m.ack_set(5, Value::new(0x11, 4));
        m.ack_set(5, Value::new(0x22, 3));
        assert!(m.check_get(5, Some(&[0x22; 3])));
        assert!(!m.check_get(5, Some(&[0x11; 4])));
        assert!(
            !m.check_get(5, Some(&[0x22; 4])),
            "length is part of the value"
        );
        assert!(!m.check_get(5, None), "a modelled key must not miss");
        assert!(!m.check_get(6, Some(&[1])), "an unwritten key must miss");
        m.ack_set(2, Value::new(1, 1));
        assert_eq!(m.keys().map(|(k, _)| k).collect::<Vec<_>>(), vec![2, 5]);
    }

    #[test]
    #[should_panic]
    fn miss_sentinel_fill_is_refused() {
        let _ = Value::new(0xFF, 8);
    }
}
