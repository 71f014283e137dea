//! Bit-identity golden for the fault list.
//!
//! Every fault-list consumer — fault grading, ATPG queues, dictionaries
//! and the benchmark's `fault.classes` count — starts from the same three
//! lists: the stuck-at universe in enumeration order, each universe
//! fault's equivalence-class representative, and the dominance-reduced
//! ATPG target list. Each is folded into an FNV-1a digest and pinned,
//! together with the class and target counts. The digests were recorded
//! while the materialized `HashMap`-indexed collapse still existed beside
//! the streaming one, so any drift in enumeration order, the equivalence
//! rules, the representative choice or the dominance rule breaks them.

use dft_fault::stream::CollapsedUniverse;
use dft_fault::{dominance_collapse, universe, Fault};
use dft_netlist::circuits::{
    binary_counter, c17, full_adder, layered_random, random_combinational, redundant_fixture,
    sn74181,
};
use dft_netlist::{Netlist, Pin};

/// FNV-1a 64.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn fault(&mut self, f: Fault) {
        self.eat(&u32::try_from(f.site.gate.index()).unwrap().to_le_bytes());
        let pin = match f.site.pin {
            Pin::Input(p) => u16::from(p),
            Pin::Output => u16::MAX,
        };
        self.eat(&pin.to_le_bytes());
        self.eat(&[u8::from(f.stuck)]);
    }
}

fn digest(faults: impl IntoIterator<Item = Fault>) -> u64 {
    let mut h = Fnv::new();
    for f in faults {
        h.fault(f);
    }
    h.0
}

/// `([universe, representatives, targets] digests, [classes, targets])`.
fn fingerprint(n: &Netlist) -> ([u64; 3], [usize; 2]) {
    let faults = universe(n);
    let col = CollapsedUniverse::new(n);
    let targets = dominance_collapse(n);
    (
        [
            digest(faults.iter().copied()),
            digest((0..faults.len()).map(|i| col.representative(i))),
            digest(targets.iter().copied()),
        ],
        [col.class_count(), targets.len()],
    )
}

#[test]
fn fault_lists_are_pinned() {
    let cases: [(Netlist, [u64; 3], [usize; 2]); 8] = [
        (
            c17(),
            [0x60d9e1c0a3d80230, 0x6c5f069ef06f8f74, 0x7e615bd4a9ba3465],
            [22, 18],
        ),
        (
            full_adder(),
            [0xbfd71bba8ab9953b, 0x90dfc540e3dba241, 0x2828a07666db3d88],
            [26, 25],
        ),
        (
            binary_counter(5),
            [0xbd1e066107b1349d, 0x20b3b9e84d5cf7d5, 0x3dedbd72fb1073f3],
            [56, 52],
        ),
        (
            sn74181().0,
            [0x54647dc7cc77e332, 0xe924ac1aef4e38e2, 0x510133e4892da00f],
            [249, 220],
        ),
        (
            redundant_fixture(),
            [0x9ae5b862b24b6527, 0x7f1ebcae3a64b2fc, 0x1bfe82976dbf8a27],
            [18, 17],
        ),
        (
            random_combinational(8, 300, 7),
            [0xcf4a021e05d5251c, 0x44f38b5e5779b738, 0x13948302a780c2df],
            [1_562, 1_393],
        ),
        (
            random_combinational(16, 300, 5),
            [0x216c6b1f79231b54, 0xa8569139c1c87eaf, 0x416d2092b50540fe],
            [1_527, 1_379],
        ),
        (
            layered_random(32, 2_000, 3),
            [0xab273e43a322e0c0, 0x9b7587a37702ebb5, 0x327d6c0d57d8fe64],
            [9_553, 8_099],
        ),
    ];
    for (n, digests, counts) in &cases {
        assert_eq!(fingerprint(n), (*digests, *counts), "{}", n.name());
    }
}
