//! Phase II pinned bit for bit at enterprise scale.
//!
//! The session goldens stop at 10 users, where Phase II is empty (the
//! enterprise site has 15 extenders) or tiny. These pins run WOLT on
//! 200-user enterprise sites, where Phase II moves about 185 users over
//! 15 extenders: one site that converges in 3 iterations and one that
//! needs twice as many (78 before line searches started at the spectral
//! step). Each pin records the fractional solve's iteration
//! count, its final objective value, a CRC-32 over the bits of its final
//! iterate (as dense rows, zeros off each user's reachable extenders),
//! the extracted and polished association and the discrete
//! WiFi objective. Any change to the floating-point operations of the
//! fractional solve, its stopping point, or the association it produces
//! fails here.
//!
//! Regenerate after an *intentional* change to the solver with:
//!
//! ```text
//! cargo test -p wolt-tests --test phase2_golden -- --ignored --nocapture
//! ```
//!
//! and paste the printed `PIN` lines back into [`PINS`].
//!
//! A second pin covers breadth instead of depth: one CRC-32 over a
//! digest of every site in [`SWEEP_ENTERPRISE`] and [`SWEEP_LAB`], each
//! digest holding the same quantities (and the greedy Phase II's
//! association and objective, whose polish applies moves). Regenerate it
//! with the same command and paste the printed `SWEEP_CRC` value back.

use wolt_core::{Network, Phase2Solver, Wolt};
use wolt_support::crc::crc32;
use wolt_tests::{enterprise_network, lab_scenario};

const USERS: usize = 200;

/// One pinned solve.
struct Pin {
    /// Scenario seed of `enterprise_network(USERS, seed)`.
    seed: u64,
    iterations: usize,
    value_bits: u64,
    iterate_crc: u32,
    wifi_objective_bits: u64,
    association: &'static [usize],
}

const PINS: &[Pin] = &[
    Pin {
        seed: 2,
        iterations: 3,
        value_bits: 0x405ad00000000002,
        iterate_crc: 0xe97f0a0e,
        wifi_objective_bits: 0x405ad00000000001,
        association: &[
            13, 0, 2, 6, 5, 4, 11, 9, 12, 0, 10, 12, 8, 7, 12, 1, 12, 2, 11, 14, 3, 4, 0, 14, 12,
            5, 14, 14, 4, 2, 14, 4, 2, 7, 7, 0, 14, 7, 14, 7, 2, 14, 2, 4, 7, 7, 2, 1, 2, 1, 4, 1,
            2, 7, 7, 7, 2, 7, 11, 7, 14, 14, 4, 7, 11, 2, 14, 7, 14, 4, 12, 2, 14, 5, 14, 4, 12,
            14, 14, 7, 12, 12, 7, 4, 4, 2, 2, 2, 0, 12, 14, 2, 7, 7, 14, 4, 12, 2, 12, 4, 12, 4,
            14, 14, 2, 8, 14, 12, 4, 7, 14, 14, 7, 7, 1, 7, 0, 2, 7, 4, 4, 1, 7, 14, 7, 7, 4, 2, 7,
            12, 14, 12, 7, 2, 4, 0, 7, 2, 2, 7, 14, 7, 0, 0, 14, 8, 7, 0, 4, 7, 4, 7, 2, 7, 4, 4,
            14, 4, 2, 7, 0, 4, 14, 2, 14, 7, 2, 14, 8, 2, 14, 2, 2, 2, 12, 1, 14, 12, 2, 4, 12, 2,
            8, 7, 2, 7, 12, 14, 4, 3, 7, 4, 7, 2, 7, 4, 0, 4, 7, 4,
        ],
    },
    Pin {
        seed: 1,
        iterations: 6,
        value_bits: 0x405ab27a3827a384,
        iterate_crc: 0xe7d52a54,
        wifi_objective_bits: 0x405ab27a3827a384,
        association: &[
            4, 1, 8, 13, 3, 12, 2, 7, 6, 5, 10, 9, 0, 6, 11, 14, 0, 3, 7, 2, 2, 2, 5, 6, 1, 6, 3,
            3, 7, 0, 2, 5, 1, 7, 3, 5, 2, 3, 6, 7, 2, 3, 7, 1, 7, 2, 2, 5, 6, 6, 3, 5, 2, 7, 2, 2,
            7, 3, 3, 5, 5, 6, 0, 6, 2, 3, 5, 7, 9, 6, 7, 6, 7, 2, 5, 6, 2, 0, 5, 5, 0, 5, 2, 2, 2,
            5, 2, 5, 2, 2, 2, 2, 6, 5, 3, 5, 2, 2, 6, 3, 3, 3, 2, 2, 2, 3, 2, 2, 6, 7, 5, 6, 6, 2,
            3, 7, 5, 3, 5, 5, 3, 9, 5, 6, 2, 3, 2, 7, 7, 5, 7, 3, 1, 7, 2, 0, 2, 2, 2, 3, 2, 2, 3,
            2, 2, 2, 3, 2, 2, 2, 6, 2, 2, 7, 5, 3, 6, 7, 9, 0, 2, 3, 5, 6, 2, 3, 2, 6, 5, 1, 2, 2,
            6, 6, 2, 2, 7, 3, 3, 6, 2, 5, 7, 3, 7, 2, 3, 2, 3, 5, 6, 9, 5, 0, 5, 5, 2, 7, 6, 1,
        ],
    },
];

/// The observed outcome of one pinned solve, in [`Pin`]'s fields.
struct Observed {
    iterations: usize,
    value_bits: u64,
    iterate_crc: u32,
    wifi_objective_bits: u64,
    association: Vec<usize>,
}

fn observe(seed: u64) -> Observed {
    let net = enterprise_network(USERS, seed);
    let (_, p2) = Wolt::new()
        .associate_detailed(&net)
        .expect("enterprise site solves");
    let report = p2.fractional.expect("Phase II has users at this scale");
    let bytes: Vec<u8> = report
        .unpack()
        .iter()
        .flatten()
        .flat_map(|v| v.to_bits().to_le_bytes())
        .collect();
    Observed {
        iterations: report.iterations,
        value_bits: report.value.to_bits(),
        iterate_crc: crc32(&bytes),
        wifi_objective_bits: p2.wifi_objective.to_bits(),
        association: (0..net.users())
            .map(|i| p2.association.target(i).expect("complete association"))
            .collect(),
    }
}

#[test]
fn phase2_is_pinned_at_enterprise_scale() {
    assert!(
        PINS.iter().any(|p| p.iterations < 5) && PINS.iter().any(|p| p.iterations >= 5),
        "the pins cover a fast and a slower site"
    );
    for pin in PINS {
        let got = observe(pin.seed);
        let seed = pin.seed;
        assert_eq!(got.iterations, pin.iterations, "seed {seed}: iterations");
        assert_eq!(
            got.value_bits, pin.value_bits,
            "seed {seed}: fractional value"
        );
        assert_eq!(
            got.iterate_crc, pin.iterate_crc,
            "seed {seed}: final iterate"
        );
        assert_eq!(got.association, pin.association, "seed {seed}: association");
        assert_eq!(
            got.wifi_objective_bits, pin.wifi_objective_bits,
            "seed {seed}: WiFi objective"
        );
    }
}

/// Regeneration helper: prints the current outcomes in the [`PINS`]
/// layout. Ignored in normal runs.
#[test]
#[ignore = "regeneration helper, not a check"]
fn print_pins() {
    for pin in PINS {
        let o = observe(pin.seed);
        println!(
            "PIN Pin {{ seed: {}, iterations: {}, value_bits: {:#018x}, iterate_crc: {:#010x}, wifi_objective_bits: {:#018x}, association: &{:?} }},",
            pin.seed, o.iterations, o.value_bits, o.iterate_crc, o.wifi_objective_bits, o.association
        );
    }
}

/// The sweep's enterprise sites (15 extenders): `(users, seeds)`.
const SWEEP_ENTERPRISE: &[(usize, std::ops::RangeInclusive<u64>)] = &[
    (50, 1..=10),
    (100, 1..=10),
    (150, 1..=6),
    (200, 3..=8),
    (250, 1..=3),
    (300, 1..=4),
];

/// The sweep's lab sites (3 extenders): `(users, seeds)`.
const SWEEP_LAB: &[(usize, std::ops::RangeInclusive<u64>)] = &[(8, 1..=15), (20, 1..=15)];

/// CRC-32 over the digests of every sweep site, in sweep order.
const SWEEP_CRC: u32 = 0x2876d3c7;

/// Every sweep site, labelled, in sweep order.
fn sweep_sites() -> Vec<(String, Network)> {
    let enterprise = SWEEP_ENTERPRISE.iter().flat_map(|(users, seeds)| {
        seeds.clone().map(move |seed| {
            let label = format!("enterprise {users} users seed {seed}");
            (label, enterprise_network(*users, seed))
        })
    });
    let lab = SWEEP_LAB.iter().flat_map(|(users, seeds)| {
        seeds.clone().map(move |seed| {
            let net = lab_scenario(*users, seed)
                .network()
                .expect("network builds");
            (format!("lab {users} users seed {seed}"), net)
        })
    });
    enterprise.chain(lab).collect()
}

/// One site's digest: the NLP solve's iteration count, value bits,
/// iterate CRC, association and WiFi-objective bits, then the greedy
/// Phase II's association and WiFi-objective bits, little-endian.
fn digest(net: &Network) -> Vec<u8> {
    let mut bytes = Vec::new();
    for solver in [Phase2Solver::Nlp, Phase2Solver::Greedy] {
        let (_, p2) = Wolt::new()
            .with_phase2_solver(solver)
            .associate_detailed(net)
            .expect("site solves");
        if let Some(report) = &p2.fractional {
            let x: Vec<u8> = report
                .unpack()
                .iter()
                .flatten()
                .flat_map(|v| v.to_bits().to_le_bytes())
                .collect();
            bytes.extend((report.iterations as u64).to_le_bytes());
            bytes.extend(report.value.to_bits().to_le_bytes());
            bytes.extend(crc32(&x).to_le_bytes());
        }
        bytes.extend((0..net.users()).flat_map(|i| {
            let j = p2.association.target(i).expect("complete association");
            (j as u32).to_le_bytes()
        }));
        bytes.extend(p2.wifi_objective.to_bits().to_le_bytes());
    }
    bytes
}

#[test]
fn phase2_is_pinned_over_a_site_sweep() {
    let sites = sweep_sites();
    let bytes: Vec<u8> = sites.iter().flat_map(|(_, net)| digest(net)).collect();
    assert_eq!(
        crc32(&bytes),
        SWEEP_CRC,
        "Phase II changed on at least one of {} sites; print_pins lists each site's digest",
        sites.len()
    );
}

/// Regeneration helper for the sweep: prints each site's digest CRC and
/// the sweep's CRC. Ignored in normal runs.
#[test]
#[ignore = "regeneration helper, not a check"]
fn print_sweep_pin() {
    let mut bytes = Vec::new();
    for (label, net) in sweep_sites() {
        let d = digest(&net);
        println!("{label}: digest crc {:#010x}", crc32(&d));
        bytes.extend(d);
    }
    println!("SWEEP_CRC {:#010x}", crc32(&bytes));
}
