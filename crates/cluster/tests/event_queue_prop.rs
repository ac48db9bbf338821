//! Event-queue robustness properties, exercised with seeded random
//! interleavings: pops are globally time-ordered, equal f64 timestamps
//! preserve FIFO (insertion) order, lazily-cancelled entries never
//! break the ordering of the survivors, and follow-up chains (the
//! fault domain's detection → restart timers) always drain to an empty
//! queue.

use cluster::EventQueue;
use sdheap::rng::Rng;

/// Reference model: entries in push order, popped by `(t, push index)`.
struct Model {
    entries: Vec<(f64, bool)>, // (timestamp, still queued)
}

impl Model {
    fn expected_pop(&mut self) -> Option<(f64, usize)> {
        let mut best: Option<(f64, usize)> = None;
        for (i, &(t, live)) in self.entries.iter().enumerate() {
            if live && best.is_none_or(|(bt, _)| t < bt) {
                best = Some((t, i));
            }
        }
        if let Some((_, i)) = best {
            self.entries[i].1 = false;
        }
        best
    }
}

#[test]
fn seeded_interleavings_preserve_fifo_among_equal_timestamps() {
    for seed in 0..8u64 {
        let mut rng = Rng::new(0xE0E0_7E57 ^ seed);
        let mut q: EventQueue<usize> = EventQueue::new();
        let mut model = Model {
            entries: Vec::new(),
        };
        // Timestamps drawn from a tiny palette, so ties are the common
        // case, interleaved with pops.
        let palette = [0.0, 1.0, 1.0, 2.5, 2.5, 2.5, 7.25];
        for _ in 0..400 {
            if rng.gen_bool(0.6) || q.is_empty() {
                let t = palette[rng.gen_range_usize(0, palette.len())];
                let id = model.entries.len();
                model.entries.push((t, true));
                q.push(t, id);
            } else {
                let (t, id) = q.pop().expect("non-empty");
                let (et, eid) = model.expected_pop().expect("model agrees non-empty");
                assert_eq!((t, id), (et, eid), "pop order must be (time, insertion)");
            }
        }
        while let Some((t, id)) = q.pop() {
            let (et, eid) = model.expected_pop().expect("model agrees non-empty");
            assert_eq!((t, id), (et, eid));
        }
        assert!(
            model.expected_pop().is_none(),
            "queue and model drain together"
        );
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
    }
}

#[test]
fn lazy_cancellation_keeps_survivor_order_and_drains() {
    // The scheduler cancels queued attempts by flagging them and
    // skipping on pop; the queue itself must still hand everything
    // back, in order, until empty.
    for seed in 0..8u64 {
        let mut rng = Rng::new(0xCA9C_E11E ^ seed);
        let mut q: EventQueue<usize> = EventQueue::new();
        let mut cancelled: Vec<bool> = Vec::new();
        let mut times: Vec<f64> = Vec::new();
        for _ in 0..300 {
            let t = rng.gen_range_usize(0, 4) as f64;
            cancelled.push(false);
            times.push(t);
            q.push(t, cancelled.len() - 1);
        }
        // Cancel a random third after the fact.
        for _ in 0..100 {
            let id = rng.gen_range_usize(0, cancelled.len());
            cancelled[id] = true;
        }
        let mut seen: Vec<(f64, usize)> = Vec::new();
        while let Some((t, id)) = q.pop() {
            assert_eq!(t, times[id], "events come back with their timestamp");
            if !cancelled[id] {
                seen.push((t, id));
            }
        }
        assert!(q.is_empty(), "cancellation must not strand entries");
        assert_eq!(seen.len(), cancelled.iter().filter(|&&c| !c).count());
        // Survivors are non-decreasing in time, FIFO within a tie
        // (push order == id order here).
        for w in seen.windows(2) {
            assert!(w[0].0 < w[1].0 || (w[0].0 == w[1].0 && w[0].1 < w[1].1));
        }
    }
}

#[test]
fn follow_up_chains_always_drain() {
    // Detection → restart timer chains: popping an event may push a
    // bounded follow-up strictly later. The loop must terminate with an
    // empty queue — no leaked timers after the last event.
    for seed in 0..4u64 {
        let mut rng = Rng::new(0x0713_50FF ^ seed);
        let mut q: EventQueue<u32> = EventQueue::new();
        for i in 0..50 {
            q.push(rng.gen_f64() * 10.0, 3 + (i % 3));
        }
        let mut popped = 0u64;
        let mut last = f64::NEG_INFINITY;
        while let Some((t, hops_left)) = q.pop() {
            popped += 1;
            assert!(t >= last, "time must be monotone");
            last = t;
            if hops_left > 0 {
                q.push(t + 1.0 + rng.gen_f64(), hops_left - 1);
            }
        }
        assert!(q.is_empty());
        assert!(popped >= 50 * 4, "every chain ran to its end");
    }
}
