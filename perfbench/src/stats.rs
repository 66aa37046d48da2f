//! Metric helpers: percentiles that refuse to extrapolate, and the
//! ack-to-ship-round matching behind the `visible_*` metrics.

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// A percentile the sample cannot support.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Insufficient {
    /// Samples available.
    pub count: usize,
    /// Samples needed for ten to lie beyond the percentile.
    pub needed: usize,
}

/// Nearest-rank percentile `q` (0 < q < 1) of `samples`, reported only
/// when at least [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], q: f64) -> Result<f64, Insufficient> {
    let n = samples.len();
    let rank = (q * n as f64).ceil() as usize;
    if n == 0 || rank == 0 || n - rank.min(n) < MIN_BEYOND {
        return Err(Insufficient {
            count: n,
            needed: needed_for(q),
        });
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(sorted[rank - 1])
}

/// Percentile `q` of a time-ordered sample, taken in up to `max_chunks`
/// consecutive equal chunks (each large enough to support `q` on its
/// own) and summarised by the [`interquartile_mean`] of the chunk
/// values. A tail percentile of a whole run moves with the few worst
/// scheduling episodes of that run; this estimate does not.
pub fn chunked_percentile(
    in_time_order: &[f64],
    q: f64,
    max_chunks: usize,
) -> Result<f64, Insufficient> {
    let n = in_time_order.len();
    let chunks = (n / needed_for(q)).min(max_chunks);
    if chunks == 0 {
        return percentile(in_time_order, q);
    }
    let size = n / chunks;
    let per_chunk: Result<Vec<f64>, Insufficient> = (0..chunks)
        .map(|i| {
            let end = if i + 1 == chunks { n } else { (i + 1) * size };
            percentile(&in_time_order[i * size..end], q)
        })
        .collect();
    Ok(interquartile_mean(&per_chunk?).expect("at least one chunk"))
}

/// Mean of the middle half of `values` (a quarter dropped from each
/// end), or `None` when empty. Unlike a median it moves smoothly when
/// one value crosses another, and unlike a mean it ignores outliers.
pub fn interquartile_mean(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = sorted.len() / 4;
    mean(&sorted[cut..sorted.len() - cut])
}

/// The smallest sample count at which percentile `q` is reported.
pub fn needed_for(q: f64) -> usize {
    (MIN_BEYOND..)
        .find(|&n| {
            let rank = (q * n as f64).ceil() as usize;
            rank >= 1 && n - rank >= MIN_BEYOND
        })
        .expect("some sample count supports any q < 1")
}

/// The median of a non-empty sample (no tail requirement), or `None`.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// Arithmetic mean, or `None` for an empty sample.
pub fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

/// One acknowledged post, timed on the run's monotonic clock (ns).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ack {
    /// When the post was due to be sent.
    pub due_ns: u64,
    /// When it was sent.
    pub sent_ns: u64,
    /// When its receipt fully reconciled.
    pub receipt_ns: u64,
    /// The leader's `leader_seq` read right after the receipt.
    pub seq_after: u64,
}

/// One `ship_round`, timed on the same clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Round {
    /// When the round started.
    pub start_ns: u64,
    /// The leader's `leader_seq` read as the round started.
    pub start_seq: u64,
    /// When the round returned (every reachable replica caught up to
    /// at least `start_seq`).
    pub end_ns: u64,
}

/// When each ack became visible at every region: the end of the first
/// round that started after its receipt *and* at a `leader_seq`
/// covering `seq_after`. `None` when no round qualifies. `rounds` must
/// be in start order (one shipper thread runs them back to back).
pub fn match_visibility(acks: &[Ack], rounds: &[Round]) -> Vec<Option<u64>> {
    acks.iter()
        .map(|a| {
            // Rounds start in time order, and `start_seq` never falls
            // (the journal only grows), so both conditions are
            // monotone: binary-search the first round meeting each.
            let after = rounds.partition_point(|r| r.start_ns <= a.receipt_ns);
            let covers = rounds.partition_point(|r| r.start_seq < a.seq_after);
            rounds.get(after.max(covers)).map(|r| r.end_ns)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        assert_eq!(needed_for(0.5), 20);
        assert_eq!(needed_for(0.9), 100);
        assert_eq!(needed_for(0.99), 1000);
        assert_eq!(percentile(&ramp(100), 0.9), Ok(90.0));
        assert_eq!(
            percentile(&ramp(99), 0.9),
            Err(Insufficient {
                count: 99,
                needed: 100
            })
        );
        assert_eq!(percentile(&ramp(1000), 0.99), Ok(990.0));
        assert!(percentile(&ramp(999), 0.99).is_err());
        assert_eq!(percentile(&ramp(20), 0.5), Ok(10.0));
        assert!(percentile(&ramp(19), 0.5).is_err());
        assert!(percentile(&[], 0.5).is_err());
    }

    #[test]
    fn percentile_sorts_its_input() {
        let mut v = ramp(40);
        v.reverse();
        assert_eq!(percentile(&v, 0.5), Ok(20.0));
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), Some(3.0));
    }

    #[test]
    fn interquartile_mean_drops_a_quarter_from_each_end() {
        assert_eq!(
            interquartile_mean(&[100.0, 1.0, 2.0, 3.0, -50.0, 4.0, 5.0, 6.0]),
            Some(3.5)
        );
        assert_eq!(interquartile_mean(&[7.0]), Some(7.0));
        assert_eq!(interquartile_mean(&[1.0, 3.0]), Some(2.0));
        assert_eq!(interquartile_mean(&[]), None);
    }

    #[test]
    fn chunked_percentile_summarises_chunk_percentiles() {
        // Four chunks of 1000: p99s 990, 1990, 2990, 3990; the middle
        // two average to 2490.
        let v: Vec<f64> = (1..=4000).map(|x| x as f64).collect();
        assert_eq!(chunked_percentile(&v, 0.99, 10), Ok(2490.0));
        // A spike confined to one chunk does not move the result.
        let mut spiky = vec![1.0; 5000];
        spiky[100..200].iter_mut().for_each(|x| *x = 1e6);
        assert_eq!(chunked_percentile(&spiky, 0.99, 5), Ok(1.0));
        assert_eq!(percentile(&spiky, 0.99), Ok(1e6));
        // Too few samples for one chunk: the plain rule applies.
        assert!(chunked_percentile(&v[..999], 0.99, 10).is_err());
        // The chunk count is capped; the last chunk takes the remainder.
        assert_eq!(
            chunked_percentile(&v[..1500], 0.99, 10),
            percentile(&v[..1500], 0.99)
        );
    }

    fn round(start_ns: u64, start_seq: u64, end_ns: u64) -> Round {
        Round {
            start_ns,
            start_seq,
            end_ns,
        }
    }

    #[test]
    fn round_that_started_before_the_ack_does_not_count() {
        // The round starting at 90 already reads seq 5 (the post was
        // journalled mid-flight) but started before the receipt at 100:
        // it may have shipped before the line existed.
        let ack = Ack {
            due_ns: 10,
            sent_ns: 10,
            receipt_ns: 100,
            seq_after: 5,
        };
        let rounds = [round(90, 5, 150), round(160, 5, 170)];
        assert_eq!(match_visibility(&[ack], &rounds), vec![Some(170)]);
    }

    #[test]
    fn round_must_cover_the_acked_sequence() {
        // A round after the receipt that read a stale leader_seq does not
        // carry the line; the next covering round does.
        let ack = Ack {
            due_ns: 0,
            sent_ns: 0,
            receipt_ns: 50,
            seq_after: 8,
        };
        let rounds = [round(10, 2, 40), round(60, 7, 80), round(90, 8, 120)];
        assert_eq!(match_visibility(&[ack], &rounds), vec![Some(120)]);
    }

    #[test]
    fn unmatched_acks_are_none_and_each_ack_is_independent() {
        let acks = [
            Ack {
                due_ns: 0,
                sent_ns: 0,
                receipt_ns: 5,
                seq_after: 1,
            },
            Ack {
                due_ns: 20,
                sent_ns: 20,
                receipt_ns: 25,
                seq_after: 2,
            },
            Ack {
                due_ns: 40,
                sent_ns: 40,
                receipt_ns: 45,
                seq_after: 3,
            },
        ];
        let rounds = [round(6, 1, 9), round(30, 2, 33)];
        assert_eq!(
            match_visibility(&acks, &rounds),
            vec![Some(9), Some(33), None]
        );
        assert_eq!(match_visibility(&acks, &[]), vec![None, None, None]);
    }

    #[test]
    fn round_starting_exactly_at_the_receipt_does_not_count() {
        let ack = Ack {
            due_ns: 0,
            sent_ns: 0,
            receipt_ns: 100,
            seq_after: 1,
        };
        let rounds = [round(100, 1, 110), round(111, 1, 120)];
        assert_eq!(match_visibility(&[ack], &rounds), vec![Some(120)]);
    }
}
