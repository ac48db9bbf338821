//! Direct tests for the network link model (`sim::net`): ledger overlap
//! between senders sharing a time window, latency accounting, golden
//! total-time values for every `LinkConfig` preset, and the `Fabric`
//! fan-in/fan-out helpers.

use sim::net::Fabric;
use sim::{Link, LinkConfig};

/// All arithmetic below is exact in binary floating point: the preset
/// bandwidths (1.25, 5, 12.5 B/ns) and the byte counts chosen divide
/// without rounding, so golden values compare with `==`.

#[test]
fn golden_total_time_ten_gbe() {
    // 1250 B at 1.25 B/ns = 1000 ns service + 10 µs latency.
    let mut l = Link::new(LinkConfig::ten_gbe());
    assert_eq!(l.send(1250, 0.0), 11_000.0);
}

#[test]
fn golden_total_time_forty_gbe() {
    // 5000 B at 5 B/ns = 1000 ns service + 8 µs latency.
    let mut l = Link::new(LinkConfig::forty_gbe());
    assert_eq!(l.send(5000, 0.0), 9_000.0);
}

#[test]
fn golden_total_time_hundred_gbe() {
    // 12500 B at 12.5 B/ns = 1000 ns service + 6 µs latency.
    let mut l = Link::new(LinkConfig::hundred_gbe());
    assert_eq!(l.send(12_500, 0.0), 7_000.0);
}

#[test]
fn ledger_overlap_two_senders_share_a_window() {
    // Sender A takes half of bucket 0; sender B's message no longer fits
    // the remainder and spills into bucket 1: the ledger makes
    // sequentially simulated senders contend as if concurrent.
    let mut l = Link::new(LinkConfig::ten_gbe());
    let a = l.send(625, 0.0); // 500 ns of the 1250 B bucket
    assert_eq!(a, 10_500.0);
    let b = l.send(1250, 0.0); // 625 B left in bucket 0, 625 B into bucket 1
    assert_eq!(b, 11_500.0, "second sender pushed a full bucket later");

    // An uncontended link would have finished at 11 000 ns.
    let mut fresh = Link::new(LinkConfig::ten_gbe());
    assert_eq!(fresh.send(1250, 0.0), 11_000.0);
}

#[test]
fn ledger_overlap_is_order_insensitive_for_totals() {
    // The bucket ledger is a capacity meter: total occupancy (and thus
    // the last finisher) does not depend on issue order within a window.
    let mut ab = Link::new(LinkConfig::forty_gbe());
    let last_ab = ab.send(4000, 0.0).max(ab.send(6000, 0.0));
    let mut ba = Link::new(LinkConfig::forty_gbe());
    let last_ba = ba.send(6000, 0.0).max(ba.send(4000, 0.0));
    assert_eq!(last_ab, last_ba);
    assert_eq!(ab.total_bytes(), ba.total_bytes());
}

#[test]
fn latency_accounts_once_per_message() {
    // Two configs differing only in latency differ by exactly that
    // delta, for any message size.
    for bytes in [1u64, 640, 12_500, 1 << 20] {
        let base = LinkConfig {
            bytes_per_ns: 12.5,
            latency_ns: 0.0,
        };
        let lat = LinkConfig {
            bytes_per_ns: 12.5,
            latency_ns: 6_000.0,
        };
        let t0 = Link::new(base).send(bytes, 0.0);
        let t1 = Link::new(lat).send(bytes, 0.0);
        assert_eq!(t1 - t0, 6_000.0, "{bytes} B");
    }
}

#[test]
fn latency_applies_after_service_of_the_last_byte() {
    // A message far larger than one bucket: arrival = service + latency.
    let cfg = LinkConfig::ten_gbe();
    let mut l = Link::new(cfg);
    let bytes = 10u64 << 20;
    let arrival = l.send(bytes, 0.0);
    let service = bytes as f64 / cfg.bytes_per_ns;
    assert!(
        (arrival - (service + cfg.latency_ns)).abs() < 1.0,
        "got {arrival}"
    );
}

#[test]
fn presets_order_by_speed() {
    let t10 = Link::new(LinkConfig::ten_gbe()).send(1 << 20, 0.0);
    let t40 = Link::new(LinkConfig::forty_gbe()).send(1 << 20, 0.0);
    let t100 = Link::new(LinkConfig::hundred_gbe()).send(1 << 20, 0.0);
    assert!(t10 > t40 && t40 > t100);
}

// ---------------------------------------------------------------------------
// Fabric
// ---------------------------------------------------------------------------

#[test]
fn fabric_uncontended_message_pays_three_hops() {
    let mut f = Fabric::full_mesh(2, 2, LinkConfig::ten_gbe());
    // 1250 B: 1000 ns per hop (egress, pair, ingress) + 10 µs latency.
    assert_eq!(f.send(0, 1, 1250, 0.0), 13_000.0);
    assert_eq!(f.total_bytes(), 1250);
    assert_eq!(f.messages(), 1);
}

#[test]
fn fabric_fan_in_contends_at_the_receiver() {
    // Two senders to one receiver: the pair links are disjoint, but the
    // ingress NIC serializes the two messages.
    let mut incast = Fabric::full_mesh(2, 2, LinkConfig::ten_gbe());
    let a = incast.send(0, 0, 1250, 0.0);
    let b = incast.send(1, 0, 1250, 0.0);
    let last_incast = a.max(b);

    // Same two messages to distinct receivers: no shared hop.
    let mut spread = Fabric::full_mesh(2, 2, LinkConfig::ten_gbe());
    let c = spread.send(0, 0, 1250, 0.0);
    let d = spread.send(1, 1, 1250, 0.0);
    assert_eq!(c, d, "disjoint paths are symmetric");
    assert!(
        last_incast >= c.max(d) + 999.0,
        "fan-in must queue at the ingress NIC: {last_incast} vs {}",
        c.max(d)
    );
}

#[test]
fn fabric_fan_out_contends_at_the_sender() {
    let mut fanout = Fabric::full_mesh(2, 2, LinkConfig::ten_gbe());
    let a = fanout.send(0, 0, 1250, 0.0);
    let b = fanout.send(0, 1, 1250, 0.0);
    assert!(
        b.max(a) >= a.min(b) + 999.0,
        "fan-out must queue at the egress NIC: {a} vs {b}"
    );
}

#[test]
fn fabric_pair_counters_and_utilization() {
    let mut f = Fabric::full_mesh(2, 3, LinkConfig::forty_gbe());
    let t1 = f.send(1, 2, 5000, 0.0);
    let t2 = f.send(1, 2, 5000, t1);
    assert_eq!(f.pair(1, 2).total_bytes(), 10_000);
    assert_eq!(f.pair(1, 2).messages(), 2);
    assert_eq!(f.pair(0, 0).messages(), 0);
    let util = f.ingress_utilization(t2);
    assert!(util > 0.0 && util <= 1.0, "util {util}");
}

#[test]
fn fabric_pair_links_materialize_lazily() {
    // A cluster-scale mesh: a million logical pairs must not allocate a
    // million ledgers up front. Only touched pairs materialize, and
    // untouched pairs still read as idle links.
    let mut f = Fabric::full_mesh(1000, 1000, LinkConfig::ten_gbe());
    assert_eq!(
        f.materialized_pairs(),
        0,
        "construction allocates no pair links"
    );
    let t1 = f.send(3, 997, 1250, 0.0);
    let t2 = f.send(3, 997, 1250, t1);
    f.send(500, 0, 1250, 0.0);
    assert_eq!(f.materialized_pairs(), 2, "one link per touched pair");
    assert_eq!(f.pair(3, 997).messages(), 2);
    assert_eq!(f.pair(3, 997).total_bytes(), 2500);
    assert_eq!(f.pair(0, 3).messages(), 0, "untouched pair reads as idle");
    assert_eq!(f.pair(999, 999).total_bytes(), 0);
    assert_eq!(f.messages(), 3);
    assert_eq!(f.total_bytes(), 3750);

    // Lazy materialization changes footprint only: arrival times match a
    // small eager-era mesh hop for hop.
    let mut small = Fabric::full_mesh(2, 2, LinkConfig::ten_gbe());
    let s1 = small.send(0, 1, 1250, 0.0);
    let s2 = small.send(0, 1, 1250, s1);
    assert_eq!(t1, s1);
    assert_eq!(t2, s2);
}
