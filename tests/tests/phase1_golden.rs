//! Phase I pinned bit for bit.
//!
//! Two CRC-32 pins. The first covers WOLT's Phase I on the sites of
//! `phase2_golden`'s sweep (enterprise 50–300 users, lab 8 and 20): for
//! each site and each [`Phase1Utility`], the association
//! `run_phase1_full` returns and the bits of its `utility_total`. The
//! second covers the assignment solver alone, on seeded matrices built
//! to hit its ties and its infeasible cells: values from a small set
//! holding +0.0, -0.0, -∞ and NaN, shapes up to 24×24 with more rows
//! than columns and fewer. For each it records `max_weight_assignment`'s
//! `pairs`, the bits of its `total`, `row_to_col` and `col_to_row`. A
//! change to which pair wins a tie, to how an infeasible cell is costed
//! or to the order the total is summed in fails here.
//!
//! Regenerate after an *intentional* change to Phase I with:
//!
//! ```text
//! cargo test -p wolt-tests --test phase1_golden -- --ignored --nocapture
//! ```
//!
//! and paste the printed `SWEEP_CRC` and `MATRIX_CRC` values back.

use wolt_core::phase1::run_phase1_full;
use wolt_core::{Network, Phase1Solver, Phase1Utility};
use wolt_opt::{max_weight_assignment, Assignment, Matrix};
use wolt_support::crc::crc32;
use wolt_support::rng::{ChaCha8Rng, Rng, SeedableRng};
use wolt_tests::{enterprise_network, lab_scenario};

/// The sweep's enterprise sites (15 extenders): `(users, seeds)`, as in
/// `phase2_golden`.
const SWEEP_ENTERPRISE: &[(usize, std::ops::RangeInclusive<u64>)] = &[
    (50, 1..=10),
    (100, 1..=10),
    (150, 1..=6),
    (200, 3..=8),
    (250, 1..=3),
    (300, 1..=4),
];

/// The sweep's lab sites (3 extenders): `(users, seeds)`, as in
/// `phase2_golden`.
const SWEEP_LAB: &[(usize, std::ops::RangeInclusive<u64>)] = &[(8, 1..=15), (20, 1..=15)];

/// CRC-32 over the Phase I digests of every sweep site, in sweep order.
const SWEEP_CRC: u32 = 0xf6c7ee0f;

/// Seeded tie-heavy matrices solved by the matrix pin.
const MATRICES: u64 = 8000;

/// CRC-32 over the assignment digests of the [`MATRICES`] matrices.
const MATRIX_CRC: u32 = 0xb82ab85d;

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

/// `None` as `u32::MAX`, little-endian.
fn index_bytes(index: Option<usize>) -> [u8; 4] {
    index.map_or(u32::MAX, |i| i as u32).to_le_bytes()
}

/// One site's digest: for each utility definition in turn, every
/// user's Phase I extender and the bits of the matching's total.
fn site_digest(net: &Network) -> Vec<u8> {
    let mut bytes = Vec::new();
    for utility in [
        Phase1Utility::Paper,
        Phase1Utility::WifiOnly,
        Phase1Utility::PlcShareOnly,
    ] {
        let out = run_phase1_full(net, Phase1Solver::Hungarian, utility).expect("site solves");
        bytes.extend((0..net.users()).flat_map(|i| index_bytes(out.association.target(i))));
        bytes.extend(out.utility_total.to_bits().to_le_bytes());
    }
    bytes
}

/// A seeded matrix of up to 24×24 cells drawn mostly from a few values,
/// so columns tie often, with +0.0 and -0.0 side by side and infeasible
/// cells (-∞ and NaN) mixed in.
fn tie_heavy_matrix(rng: &mut ChaCha8Rng) -> Matrix {
    const VALUES: [f64; 9] = [
        0.0,
        -0.0,
        0.5,
        1.0,
        2.0,
        -1.0,
        7.25,
        f64::NEG_INFINITY,
        f64::NAN,
    ];
    let rows = rng.gen_range(1..=24usize);
    let cols = rng.gen_range(1..=24usize);
    Matrix::from_fn(rows, cols, |_, _| {
        if rng.gen_range(0..8u32) == 0 {
            rng.gen_range(-4.0..4.0)
        } else {
            VALUES[rng.gen_range(0..VALUES.len())]
        }
    })
    .expect("positive dimensions")
}

/// An assignment's pairs, total bits and both lookups, little-endian.
fn assignment_digest(a: &Assignment) -> Vec<u8> {
    let mut bytes = Vec::new();
    bytes.extend((a.pairs.len() as u32).to_le_bytes());
    for &(r, c) in &a.pairs {
        bytes.extend(index_bytes(Some(r)));
        bytes.extend(index_bytes(Some(c)));
    }
    bytes.extend(a.total.to_bits().to_le_bytes());
    bytes.extend(a.row_to_col.iter().flat_map(|&c| index_bytes(c)));
    bytes.extend(a.col_to_row.iter().flat_map(|&r| index_bytes(r)));
    bytes
}

/// The digests of the [`MATRICES`] seeded matrices, back to back.
fn matrix_digests() -> Vec<u8> {
    let mut rng = ChaCha8Rng::seed_from_u64(0x9e11);
    (0..MATRICES)
        .flat_map(|_| assignment_digest(&max_weight_assignment(&tie_heavy_matrix(&mut rng))))
        .collect()
}

#[test]
fn phase1_is_pinned_over_a_site_sweep() {
    let sites = sweep_sites();
    let bytes: Vec<u8> = sites.iter().flat_map(|(_, net)| site_digest(net)).collect();
    assert_eq!(
        crc32(&bytes),
        SWEEP_CRC,
        "Phase I changed on at least one of {} sites; print_pins lists each site's digest",
        sites.len()
    );
}

#[test]
fn assignment_is_pinned_on_tie_heavy_matrices() {
    assert_eq!(
        crc32(&matrix_digests()),
        MATRIX_CRC,
        "max_weight_assignment changed on at least one of {MATRICES} seeded matrices"
    );
}

/// Regeneration helper: prints each sweep site's digest CRC and both
/// pins' CRCs. Ignored in normal runs.
#[test]
#[ignore = "regeneration helper, not a check"]
fn print_pins() {
    let mut bytes = Vec::new();
    for (label, net) in sweep_sites() {
        let d = site_digest(&net);
        println!("{label}: digest crc {:#010x}", crc32(&d));
        bytes.extend(d);
    }
    println!("SWEEP_CRC {:#010x}", crc32(&bytes));
    println!("MATRIX_CRC {:#010x}", crc32(&matrix_digests()));
}
