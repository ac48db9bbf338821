//! Frozen draws of the seeded fault streams.
//!
//! Every fault schedule in the shuffle, the store and the cluster is a
//! pure function of the draws a `(seed, scope)` stream makes, in the
//! order its caller makes them. Each row pins, for one `(seed, scope,
//! rate)`, an FNV-1a-64 over thousands of draws of each shape:
//!
//! - `bool`: a rate draw;
//! - `interior`: a rate draw and, when it fires, the landing fraction's
//!   f64 bits;
//! - `byte_1`, `byte_64`, `byte_4096`: `corrupt_byte`'s `(pos, mask)` at
//!   that payload length;
//! - `jitter`: the f64 bits of a uniform `[0, 1)` draw;
//! - `cluster`: an executor stream and a node stream in the scheduler's
//!   dispatch order (DU failure unless already failed, node failure
//!   unless already pending, executor crash, task failure, and a
//!   cooldown jitter after some task failures);
//! - `store`: spill reloads in the block store's order (disk read error
//!   gated by the retry budget, then spill corruption, on every attempt;
//!   a corruption draws its byte and ends the reload);
//! - `shuffle`: message plans in the shuffle's order (loss, then
//!   corruption, on every attempt; a corruption draws its byte), one
//!   stream per message.
//!
//! Rates are {0, 0.05, 0.5, 1}. Each interleaved column runs three
//! times into its digest: every class at the row's rate, then the
//! classes drawn first at 0, then the classes drawn after them at 0. A
//! draw at rate 0 must still consume the stream, so skipping one moves
//! a row. On a mismatch the test prints the actual rows.

use sdheap::rng::Rng;
use sim::fault::{corrupt_byte, interior, stream};

/// Draws per single-shape column.
const DRAWS: usize = 4096;
/// Dispatches, reloads and message plans per interleaved column.
const EVENTS: usize = 2048;
/// Retry budget of the interleaved store and shuffle columns.
const MAX_RETRIES: u32 = 4;

/// Streaming FNV-1a-64.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x1_0000_01b3);
        }
    }

    fn bool(&mut self, b: bool) {
        self.eat(&[u8::from(b)]);
    }

    fn f64(&mut self, x: f64) {
        self.eat(&x.to_bits().to_le_bytes());
    }

    fn frac(&mut self, f: Option<f64>) {
        self.bool(f.is_some());
        if let Some(f) = f {
            self.f64(f);
        }
    }

    fn byte(&mut self, (pos, mask): (usize, u8)) {
        self.eat(&(pos as u64).to_le_bytes());
        self.eat(&[mask]);
    }
}

/// FNV of `DRAWS` calls of `draw` on the `(seed, scope)` stream.
fn repeat(seed: u64, scope: u64, mut draw: impl FnMut(&mut Rng, &mut Fnv)) -> u64 {
    let mut rng = stream(seed, scope);
    let mut fnv = Fnv::new();
    for _ in 0..DRAWS {
        draw(&mut rng, &mut fnv);
    }
    fnv.0
}

/// Runs an interleaved column three times into one digest: every class
/// at `rate`, the classes drawn first (`lead`) at 0, and the classes
/// drawn after them (`trail`) at 0. A skipped draw at rate 0 shifts the
/// other class's outcomes.
fn mixed(rate: f64, column: impl Fn(f64, f64, &mut Fnv)) -> u64 {
    let mut fnv = Fnv::new();
    for (lead, trail) in [(rate, rate), (0.0, rate), (rate, 0.0)] {
        column(lead, trail, &mut fnv);
    }
    fnv.0
}

/// DU failure and executor crash lead; node failure and task failure
/// trail.
fn cluster(seed: u64, scope: u64, lead: f64, trail: f64, fnv: &mut Fnv) {
    let mut exec = stream(seed, scope);
    let mut node = stream(seed, scope ^ 0x0DEF_A170_0000);
    let (mut node_pending, mut du_failed) = (false, false);
    for d in 0..EVENTS {
        if d % 3 == 0 && !du_failed {
            du_failed = node.gen_bool(lead);
            fnv.bool(du_failed);
        }
        if !node_pending {
            let f = interior(&mut node, trail);
            node_pending = f.is_some();
            fnv.frac(f);
        }
        fnv.frac(interior(&mut exec, lead));
        let failed = interior(&mut exec, trail);
        fnv.frac(failed);
        if failed.is_some() && d % 2 == 0 {
            fnv.f64(exec.gen_f64());
        }
        if d % 16 == 15 {
            // The node comes back: its streams draw again.
            node_pending = false;
            du_failed = false;
        }
    }
}

/// Disk read error leads; spill corruption trails.
fn store(seed: u64, scope: u64, lead: f64, trail: f64, fnv: &mut Fnv) {
    let mut rng = stream(seed, scope);
    for _ in 0..EVENTS {
        let mut attempt = 0u32;
        loop {
            let budget_left = attempt < MAX_RETRIES;
            let transient = rng.gen_bool(lead) && budget_left;
            let corrupt = rng.gen_bool(trail);
            if corrupt {
                fnv.byte(corrupt_byte(&mut rng, 4096));
                break;
            }
            if !transient {
                break;
            }
            attempt += 1;
        }
        fnv.eat(&attempt.to_le_bytes());
    }
}

/// Link loss leads; wire corruption trails.
fn shuffle(seed: u64, scope: u64, lead: f64, trail: f64, fnv: &mut Fnv) {
    for i in 0..EVENTS as u64 {
        let mut rng = stream(seed, scope.wrapping_add(i));
        for k in 0..=MAX_RETRIES {
            let lost = rng.gen_bool(lead);
            let corrupt = rng.gen_bool(trail);
            fnv.bool(lost);
            fnv.bool(corrupt);
            if k == MAX_RETRIES {
                break;
            }
            if lost {
                continue;
            }
            if !corrupt {
                break;
            }
            fnv.byte(corrupt_byte(&mut rng, 1500));
        }
    }
}

/// `[bool, interior, byte_1, byte_64, byte_4096, jitter, cluster, store,
/// shuffle]` digests of one `(seed, scope, rate)`.
fn row(seed: u64, scope: u64, rate: f64) -> [u64; 9] {
    let bytes = |len| repeat(seed, scope, |rng, fnv| fnv.byte(corrupt_byte(rng, len)));
    [
        repeat(seed, scope, |rng, fnv| fnv.bool(rng.gen_bool(rate))),
        repeat(seed, scope, |rng, fnv| fnv.frac(interior(rng, rate))),
        bytes(1),
        bytes(64),
        bytes(4096),
        repeat(seed, scope, |rng, fnv| fnv.f64(rng.gen_f64())),
        mixed(rate, |lead, trail, fnv| {
            cluster(seed, scope, lead, trail, fnv)
        }),
        mixed(rate, |lead, trail, fnv| {
            store(seed, scope, lead, trail, fnv)
        }),
        mixed(rate, |lead, trail, fnv| {
            shuffle(seed, scope, lead, trail, fnv)
        }),
    ]
}

type Row = (u64, u64, f64, [u64; 9]);

const ROWS: &[Row] = &[
    (
        0x0,
        0x0,
        0.0,
        [
            0xaf867c83ce3b6325,
            0xaf867c83ce3b6325,
            0xf465eef1d2bfdcbf,
            0x89fea34ab0b8b968,
            0x1759bcc743f97016,
            0x5bc7b98151d32b67,
            0x395d2d63728877df,
            0x40fa606af0b9a325,
            0xf9286751526de325,
        ],
    ),
    (
        0x0,
        0x0,
        0.05,
        [
            0x0268bd67ea6ad2a3,
            0xaa91114e8a5b601b,
            0xf465eef1d2bfdcbf,
            0x89fea34ab0b8b968,
            0x1759bcc743f97016,
            0x5bc7b98151d32b67,
            0x99db64e49ba9f91f,
            0xfa29f30c1b6765c7,
            0x2b8565682f13d70f,
        ],
    ),
    (
        0x0,
        0x0,
        0.5,
        [
            0xe60fa3a6f90be042,
            0xeca01e842f7e33e8,
            0xf465eef1d2bfdcbf,
            0x89fea34ab0b8b968,
            0x1759bcc743f97016,
            0x5bc7b98151d32b67,
            0xd873da64a004eeef,
            0x6e7c2dd0e20ac3ed,
            0xd4fd9b402c1a329c,
        ],
    ),
    (
        0x0,
        0x0,
        1.0,
        [
            0xd4cf9319e5157325,
            0x77b6f4a2abd7615f,
            0xf465eef1d2bfdcbf,
            0x89fea34ab0b8b968,
            0x1759bcc743f97016,
            0x5bc7b98151d32b67,
            0xf4f65ef7b658c82b,
            0x6feee6b13a26df65,
            0x6ba138f692093ea3,
        ],
    ),
    (
        0xfa170005,
        0x3,
        0.0,
        [
            0xaf867c83ce3b6325,
            0xaf867c83ce3b6325,
            0xaaf0b988cb02e786,
            0xdc496556a053464e,
            0x4ba38db6204f6563,
            0xf6c36391afac28c7,
            0x395d2d63728877df,
            0x40fa606af0b9a325,
            0xf9286751526de325,
        ],
    ),
    (
        0xfa170005,
        0x3,
        0.05,
        [
            0x00897c0b204989f4,
            0x5da47e995e8b3b52,
            0xaaf0b988cb02e786,
            0xdc496556a053464e,
            0x4ba38db6204f6563,
            0xf6c36391afac28c7,
            0x11882433697316d8,
            0x2113a06dca14fbb2,
            0xc61d9d1dd652e8b5,
        ],
    ),
    (
        0xfa170005,
        0x3,
        0.5,
        [
            0x0d02ab778f99318f,
            0xac385294e6c9bcbf,
            0xaaf0b988cb02e786,
            0xdc496556a053464e,
            0x4ba38db6204f6563,
            0xf6c36391afac28c7,
            0x486837f674f84dc8,
            0x308ac62d72f9c59b,
            0x5c80cb1647f9cc61,
        ],
    ),
    (
        0xfa170005,
        0x3,
        1.0,
        [
            0xd4cf9319e5157325,
            0x2d12f4803b2be894,
            0xaaf0b988cb02e786,
            0xdc496556a053464e,
            0x4ba38db6204f6563,
            0xf6c36391afac28c7,
            0x77329ddcf17b82e5,
            0x7113bbff709a35b5,
            0xf006463d9e1ec28b,
        ],
    ),
    (
        0xfa17c1057e0a,
        0x40000007,
        0.0,
        [
            0xaf867c83ce3b6325,
            0xaf867c83ce3b6325,
            0xe6614b4a92e12344,
            0x6e81fdd417864fe5,
            0x58f7c8c0bbb4d053,
            0x2ffa38069ff8e027,
            0x395d2d63728877df,
            0x40fa606af0b9a325,
            0xf9286751526de325,
        ],
    ),
    (
        0xfa17c1057e0a,
        0x40000007,
        0.05,
        [
            0x3ba192caafad4787,
            0xb0334f8fa3d03a1e,
            0xe6614b4a92e12344,
            0x6e81fdd417864fe5,
            0x58f7c8c0bbb4d053,
            0x2ffa38069ff8e027,
            0x89a65f491a58911e,
            0x753bcb1eefb2de9b,
            0x0c3b5169b1730574,
        ],
    ),
    (
        0xfa17c1057e0a,
        0x40000007,
        0.5,
        [
            0xd09be25c23097e78,
            0x54590d102ffe2340,
            0xe6614b4a92e12344,
            0x6e81fdd417864fe5,
            0x58f7c8c0bbb4d053,
            0x2ffa38069ff8e027,
            0x6677378ddc36ff6b,
            0xc98aa7c3e5567b31,
            0x93d6b97fdc6b913e,
        ],
    ),
    (
        0xfa17c1057e0a,
        0x40000007,
        1.0,
        [
            0xd4cf9319e5157325,
            0xd77019a47923cb6a,
            0xe6614b4a92e12344,
            0x6e81fdd417864fe5,
            0x58f7c8c0bbb4d053,
            0x2ffa38069ff8e027,
            0xa2b6b9c0e5486731,
            0x2e87ac85ecb867a5,
            0x09972affaa54a386,
        ],
    ),
];

#[test]
fn fault_streams_match_the_frozen_rows() {
    let pairs = [
        (0u64, 0u64),
        (0xFA17_0005, 3),
        (42 ^ 0xFA17_C105_7E20, 0x4000_0007),
    ];
    let rates = [0.0, 0.05, 0.5, 1.0];
    let actual: Vec<Row> = pairs
        .iter()
        .flat_map(|&(seed, scope)| {
            rates
                .iter()
                .map(move |&rate| (seed, scope, rate, row(seed, scope, rate)))
        })
        .collect();
    if actual != ROWS {
        let mut s = String::new();
        for (seed, scope, rate, d) in &actual {
            s += &format!("    ({seed:#x}, {scope:#x}, {rate:?}, [\n");
            for x in d {
                s += &format!("        {x:#018x},\n");
            }
            s += "    ]),\n";
        }
        panic!("fault streams moved; actual rows:\n{s}");
    }
}
