//! Bounded parallelism over a slice of independent items:
//! [`for_each_mut`], on `std::thread::scope` like `train_env`'s rollout
//! workers. The Fig. 8 evaluation fan-out (`hrp-bench`'s `eval_policy`,
//! one item per queue) runs on it. Each item is updated by one call,
//! whichever thread makes it, so the result is the serial loop's for
//! any thread count.

/// Number of worker threads to use when the caller passes `0`
/// ("auto"): the machine's available parallelism.
#[must_use]
pub fn resolve_threads(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Run `f(index, item)` on every item of `items`, on up to `threads`
/// scoped threads (`0` = available parallelism).
///
/// The slice is split into contiguous chunks, one per thread, and the
/// calling thread takes the first; with one thread or one item nothing
/// is spawned.
///
/// ```
/// use hrp_core::par::for_each_mut;
///
/// let mut squares = vec![0; 8];
/// for_each_mut(&mut squares, 4, |i, x| *x = i * i);
/// assert_eq!(squares, [0, 1, 4, 9, 16, 25, 36, 49]);
/// ```
///
/// # Panics
/// Re-raises the first panic of `f`, with its original payload: the
/// caller's own chunk's if it panicked, else the first worker's in
/// chunk order.
pub fn for_each_mut<T, F>(items: &mut [T], threads: usize, f: F)
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let chunk = items.len().div_ceil(resolve_threads(threads)).max(1);
    let run = |start: usize, part: &mut [T]| {
        for (i, item) in part.iter_mut().enumerate() {
            f(start + i, item);
        }
    };
    if chunk >= items.len() {
        run(0, items);
        return;
    }
    std::thread::scope(|scope| {
        let (first, rest) = items.split_at_mut(chunk);
        let run = &run;
        let handles: Vec<_> = rest
            .chunks_mut(chunk)
            .enumerate()
            .map(|(k, part)| scope.spawn(move || run((k + 1) * chunk, part)))
            .collect();
        run(0, first);
        // Joined by hand: a panic left to the scope would come back as
        // "a scoped thread panicked", and callers need the original (the
        // evaluation fan-out's "invalid decision" message, say).
        for handle in handles {
            if let Err(payload) = handle.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_threads_auto_is_positive() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(5), 5);
    }

    #[test]
    fn more_threads_than_items_is_fine() {
        let mut got = vec![0; 3];
        for_each_mut(&mut got, 16, |i, x| *x = i);
        assert_eq!(got, [0, 1, 2]);
    }

    #[test]
    fn maps_in_index_order() {
        // The one table: every thread count and item count gives the
        // serial map's outputs, item by item.
        let f = |i: usize| (i as u64 ^ 0xdead_beef).wrapping_mul(6364136223846793005);
        for threads in [1usize, 2, 4, 0] {
            for n in [0usize, 1, 3, 17, 64] {
                let mut got = vec![0u64; n];
                for_each_mut(&mut got, threads, |i, x| *x = f(i));
                let want: Vec<u64> = (0..n).map(f).collect();
                assert_eq!(got, want, "threads = {threads}, n = {n}");
            }
        }
    }

    #[test]
    fn handles_empty_and_single() {
        let mut none: Vec<usize> = Vec::new();
        for_each_mut(&mut none, 4, |_, _| panic!("no item to visit"));
        let caller = std::thread::current().id();
        let mut one = vec![(10, None)];
        for_each_mut(&mut one, 4, |i, (x, by)| {
            *x += i;
            *by = Some(std::thread::current().id());
        });
        assert_eq!(one, [(10, Some(caller))]);
    }

    #[test]
    fn results_identical_across_thread_counts() {
        let expensive = |i: usize| -> u64 {
            let mut acc = i as u64;
            for k in 0..1000 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(k);
            }
            acc
        };
        let run = |threads| {
            let mut out = vec![0u64; 32];
            for_each_mut(&mut out, threads, |i, x| *x = expensive(i));
            out
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn pool_map_is_equivalent_to_the_serial_map() {
        // An update that reads the item's own state gives the plain
        // serial loop's slice, for any thread count.
        let step = |i: usize, x: &mut u64| {
            *x = x.rotate_left(7) ^ (i as u64).wrapping_mul(6364136223846793005);
        };
        let start: Vec<u64> = (0..64u64).map(|k| k.wrapping_mul(0x9e37_79b9)).collect();
        let mut serial = start.clone();
        for (i, x) in serial.iter_mut().enumerate() {
            step(i, x);
        }
        for threads in [1usize, 2, 4, 0] {
            let mut got = start.clone();
            for_each_mut(&mut got, threads, step);
            assert_eq!(got, serial, "threads = {threads}");
        }
    }

    #[test]
    fn pool_for_each_visits_every_index_exactly_once() {
        for threads in [1usize, 2, 4, 0] {
            let mut hits = vec![(0u32, usize::MAX); 33];
            for_each_mut(&mut hits, threads, |i, (calls, seen)| {
                *calls += 1;
                *seen = i;
            });
            for (i, hit) in hits.into_iter().enumerate() {
                assert_eq!(hit, (1, i), "threads = {threads}, item {i}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "item 3 refused on a spawned thread")]
    fn a_panic_on_a_spawned_thread_keeps_its_payload() {
        // Two threads over four items: the caller takes items 0 and 1, a
        // spawned thread items 2 and 3. The caller must see the spawned
        // thread's own message, not the scope's generic one.
        let caller = std::thread::current().id();
        let mut items = vec![0u8; 4];
        for_each_mut(&mut items, 2, |i, _| {
            if i == 3 {
                assert_ne!(std::thread::current().id(), caller);
                panic!("item {i} refused on a spawned thread");
            }
        });
    }

    #[test]
    fn pool_with_one_thread_runs_on_the_caller() {
        // One thread spawns nothing; with more, the caller still runs
        // the first chunk.
        let caller = std::thread::current().id();
        for threads in [1usize, 2, 4] {
            let mut by = vec![None; 8];
            for_each_mut(&mut by, threads, |_, by| {
                *by = Some(std::thread::current().id())
            });
            let on_caller = if threads == 1 { &by[..] } else { &by[..1] };
            assert!(
                on_caller.iter().all(|id| *id == Some(caller)),
                "threads = {threads}"
            );
        }
    }
}
