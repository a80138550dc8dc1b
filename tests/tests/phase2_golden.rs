//! Phase II pinned bit for bit at enterprise scale.
//!
//! The session goldens stop at 10 users, where Phase II is empty (the
//! enterprise site has 15 extenders) or tiny. These pins run WOLT on
//! 200-user enterprise sites, where Phase II moves about 185 users over
//! 15 extenders, one site that converges in a few iterations and one
//! that needs tens. Each pin records the fractional solve's iteration
//! count, its final objective value, a CRC-32 over the bits of its final
//! iterate, the extracted and polished association and the discrete
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

use wolt_core::Wolt;
use wolt_support::crc::crc32;
use wolt_tests::enterprise_network;

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
        iterations: 6,
        value_bits: 0x405ad00000000004,
        iterate_crc: 0xa0f99fed,
        wifi_objective_bits: 0x405ad00000000001,
        association: &[
            13, 0, 2, 6, 5, 4, 11, 9, 12, 0, 10, 12, 8, 7, 12, 1, 12, 9, 11, 14, 3, 10, 0, 14, 12,
            5, 14, 14, 10, 13, 14, 10, 6, 13, 10, 0, 14, 7, 14, 13, 2, 14, 2, 10, 4, 13, 13, 13, 2,
            13, 10, 1, 2, 13, 10, 1, 2, 13, 11, 13, 14, 14, 10, 1, 11, 2, 14, 7, 14, 10, 8, 2, 14,
            5, 14, 10, 8, 14, 14, 13, 12, 8, 13, 10, 10, 13, 2, 2, 0, 12, 14, 13, 10, 10, 14, 10,
            12, 9, 12, 10, 12, 10, 14, 14, 2, 8, 14, 12, 10, 10, 14, 14, 1, 13, 1, 13, 0, 2, 13,
            10, 10, 1, 10, 14, 13, 13, 10, 13, 1, 12, 14, 12, 7, 13, 10, 0, 4, 2, 2, 7, 14, 7, 0,
            0, 14, 8, 13, 0, 10, 7, 10, 1, 6, 13, 10, 10, 14, 10, 13, 10, 0, 10, 14, 2, 14, 10, 9,
            14, 8, 6, 14, 2, 2, 13, 13, 13, 14, 12, 6, 10, 8, 9, 8, 7, 13, 1, 8, 14, 10, 3, 13, 10,
            1, 6, 10, 10, 0, 10, 10, 10,
        ],
    },
    Pin {
        seed: 1,
        iterations: 78,
        value_bits: 0x405ab27a3827a385,
        iterate_crc: 0xc72b4e76,
        wifi_objective_bits: 0x405ab27a3827a384,
        association: &[
            4, 1, 8, 13, 3, 12, 2, 7, 6, 5, 10, 9, 0, 6, 11, 14, 0, 3, 7, 2, 2, 2, 6, 6, 1, 6, 3,
            3, 7, 0, 2, 6, 1, 7, 4, 6, 2, 0, 6, 7, 2, 0, 7, 1, 7, 2, 2, 6, 6, 6, 4, 6, 2, 7, 2, 2,
            7, 3, 0, 6, 6, 6, 0, 6, 2, 0, 6, 7, 4, 6, 7, 6, 1, 2, 6, 6, 2, 0, 6, 6, 0, 6, 2, 2, 2,
            6, 2, 6, 2, 2, 2, 2, 6, 6, 4, 6, 2, 2, 6, 0, 3, 0, 2, 2, 2, 3, 2, 2, 6, 7, 6, 6, 6, 2,
            3, 7, 6, 0, 6, 6, 3, 4, 6, 6, 2, 4, 2, 1, 7, 6, 1, 4, 1, 7, 2, 0, 2, 2, 2, 4, 2, 2, 0,
            2, 2, 2, 0, 2, 2, 2, 6, 2, 2, 7, 6, 3, 6, 1, 4, 0, 2, 4, 6, 6, 2, 4, 2, 6, 6, 1, 2, 2,
            6, 6, 2, 2, 7, 0, 0, 6, 2, 6, 7, 0, 7, 2, 3, 2, 0, 6, 6, 9, 6, 0, 6, 6, 2, 7, 6, 1,
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
        .x
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
        PINS.iter().any(|p| p.iterations < 10) && PINS.iter().any(|p| p.iterations >= 20),
        "the pins cover a fast and a slow site"
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
