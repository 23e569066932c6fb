//! Property tests for the unit types — the arithmetic everything else
//! stands on. Each property is exercised over a seeded sweep of random
//! inputs drawn from [`SimRng`], so failures replay exactly.

use pim_sim::{Bandwidth, Bytes, Cycles, Frequency, SimRng, SimTime};

const CASES: usize = 256;

#[test]
fn transfer_time_is_monotone_in_bytes() {
    let mut rng = SimRng::seed_from_u64(0x0111);
    for _ in 0..CASES {
        let bw_mbps = rng.gen_range(1.0f64..100_000.0);
        let a = rng.gen_range(0u64..1 << 40);
        let b = rng.gen_range(0u64..1 << 40);
        let bw = Bandwidth::mbps(bw_mbps);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        assert!(bw.transfer_time(Bytes::new(lo)) <= bw.transfer_time(Bytes::new(hi)));
    }
}

#[test]
fn transfer_time_is_antitone_in_bandwidth() {
    let mut rng = SimRng::seed_from_u64(0x0112);
    for _ in 0..CASES {
        let bytes = rng.gen_range(1u64..1 << 40);
        let a_mbps = rng.gen_range(1.0f64..100_000.0);
        let b_mbps = rng.gen_range(1.0f64..100_000.0);
        let (slow, fast) = if a_mbps <= b_mbps {
            (a_mbps, b_mbps)
        } else {
            (b_mbps, a_mbps)
        };
        let t_slow = Bandwidth::mbps(slow).transfer_time(Bytes::new(bytes));
        let t_fast = Bandwidth::mbps(fast).transfer_time(Bytes::new(bytes));
        assert!(t_fast <= t_slow);
    }
}

#[test]
fn transfer_time_never_undershoots_the_exact_value() {
    let mut rng = SimRng::seed_from_u64(0x0113);
    for _ in 0..CASES {
        let bytes = rng.gen_range(1u64..1 << 40);
        let bps = rng.gen_range(1u64..1 << 40);
        // ceil rounding: time * bw >= bytes, and the undershoot of one less
        // picosecond would be too small.
        let bw = Bandwidth::bytes_per_sec(bps);
        let t = bw.transfer_time(Bytes::new(bytes));
        let moved = t.as_ps() as u128 * bps as u128 / 1_000_000_000_000u128;
        assert!(moved >= bytes as u128 || t.as_ps() == 0);
    }
}

#[test]
fn split_then_aggregate_never_gains_bandwidth() {
    let mut rng = SimRng::seed_from_u64(0x0114);
    for _ in 0..CASES {
        let bps = rng.gen_range(1u64..1 << 50);
        let n = rng.gen_range(1u64..1000);
        let bw = Bandwidth::bytes_per_sec(bps);
        assert!(bw.split(n).aggregate(n).as_bytes_per_sec() <= bps);
    }
}

#[test]
fn cycles_roundtrip_through_time() {
    let mut rng = SimRng::seed_from_u64(0x0115);
    for _ in 0..CASES {
        let mhz = rng.gen_range(1u64..10_000);
        let cycles = rng.gen_range(0u64..1 << 40);
        let f = Frequency::mhz(mhz);
        let c = Cycles::new(cycles);
        assert_eq!(f.time_to_cycles(f.cycles_to_time(c)), c);
    }
}

#[test]
fn simtime_addition_is_commutative_and_associative() {
    let mut rng = SimRng::seed_from_u64(0x0116);
    for _ in 0..CASES {
        let a = rng.gen_range(0u64..1 << 50);
        let b = rng.gen_range(0u64..1 << 50);
        let c = rng.gen_range(0u64..1 << 50);
        let (x, y, z) = (
            SimTime::from_ps(a),
            SimTime::from_ps(b),
            SimTime::from_ps(c),
        );
        assert_eq!(x + y, y + x);
        assert_eq!((x + y) + z, x + (y + z));
    }
}

#[test]
fn ratio_is_inverse_consistent() {
    let mut rng = SimRng::seed_from_u64(0x0117);
    for _ in 0..CASES {
        let a = rng.gen_range(1u64..1 << 50);
        let b = rng.gen_range(1u64..1 << 50);
        let (x, y) = (SimTime::from_ps(a), SimTime::from_ps(b));
        let r = x.ratio(y) * y.ratio(x);
        assert!((r - 1.0).abs() < 1e-9);
    }
}

#[test]
fn div_ceil_covers() {
    let mut rng = SimRng::seed_from_u64(0x0118);
    for _ in 0..CASES {
        let bytes = rng.gen_range(1u64..1 << 50);
        let chunk = rng.gen_range(1u64..1 << 20);
        let n = Bytes::new(bytes).div_ceil(Bytes::new(chunk));
        assert!(n * chunk >= bytes);
        assert!((n - 1) * chunk < bytes);
    }
}
