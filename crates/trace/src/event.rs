//! Typed lifecycle events and their fixed 4-word wire encoding.
//!
//! Every event is packed into exactly four `u64` words so the SPSC rings
//! can store them in plain atomic slots with no allocation and no
//! variable-length framing:
//!
//! | word | contents                                              |
//! |------|-------------------------------------------------------|
//! | 0    | monotonic timestamp, nanoseconds since tracer origin  |
//! | 1    | `kind` (u8) \| `worker` (u8) \| `epoch` (u16) \| `arg` (u32) |
//! | 2    | sample sequence number (`seq`)                        |
//! | 3    | duration in nanoseconds (0 for instant events)        |
//!
//! `arg` is the kind-specific payload: the pipeline step index for
//! `StageStart`/`StageEnd`, the queue id for `QueuePut`/`QueuePop`, and
//! the GPU index for `BatchEmit`/`Delivered`.

/// Number of distinct [`EventKind`] discriminants.
pub const KIND_COUNT: usize = 14;

/// What happened to a sample (or worker) at one instant of its life.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum EventKind {
    /// A ticket was claimed from the sampler; the sample's life begins.
    TicketClaimed = 0,
    /// A pipeline step began executing (`arg` = step index).
    StageStart = 1,
    /// A pipeline step finished (`arg` = step index, `dur_ns` = runtime).
    StageEnd = 2,
    /// The cross-epoch cache served the sample without running the
    /// pipeline.
    CacheHit = 3,
    /// The cross-epoch cache was consulted and missed.
    CacheMiss = 4,
    /// The sample was enqueued (`arg` = queue id).
    QueuePut = 5,
    /// The sample was dequeued (`arg` = queue id).
    QueuePop = 6,
    /// The sample exceeded the balancer timeout and was deferred to the
    /// slow path.
    SlowDefer = 7,
    /// A deferred sample finished its background completion
    /// (`dur_ns` = resume runtime).
    SlowResume = 8,
    /// A batch was sealed and published (`arg` = GPU index).
    BatchEmit = 9,
    /// The consumer popped the sample inside a batch
    /// (`dur_ns` = ticket-issue → delivery latency, `arg` = GPU index).
    Delivered = 10,
    /// An injected or organic fault fired while processing the sample.
    FaultHit = 11,
    /// A buffer-pool acquire was served from pooled memory.
    PoolHit = 12,
    /// A buffer-pool acquire fell through to a fresh allocation.
    PoolMiss = 13,
}

impl EventKind {
    /// All kinds, indexable by discriminant.
    pub const ALL: [EventKind; KIND_COUNT] = [
        EventKind::TicketClaimed,
        EventKind::StageStart,
        EventKind::StageEnd,
        EventKind::CacheHit,
        EventKind::CacheMiss,
        EventKind::QueuePut,
        EventKind::QueuePop,
        EventKind::SlowDefer,
        EventKind::SlowResume,
        EventKind::BatchEmit,
        EventKind::Delivered,
        EventKind::FaultHit,
        EventKind::PoolHit,
        EventKind::PoolMiss,
    ];

    /// Decodes a discriminant byte; `None` for out-of-range values
    /// (a corrupted ring slot must not panic the collector).
    pub fn from_u8(v: u8) -> Option<EventKind> {
        Self::ALL.get(v as usize).copied()
    }

    /// Stable display name (used as the Perfetto span name prefix).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::TicketClaimed => "ticket_claimed",
            EventKind::StageStart => "stage_start",
            EventKind::StageEnd => "stage",
            EventKind::CacheHit => "cache_hit",
            EventKind::CacheMiss => "cache_miss",
            EventKind::QueuePut => "queue_put",
            EventKind::QueuePop => "queue_pop",
            EventKind::SlowDefer => "slow_defer",
            EventKind::SlowResume => "slow_resume",
            EventKind::BatchEmit => "batch_emit",
            EventKind::Delivered => "delivered",
            EventKind::FaultHit => "fault_hit",
            EventKind::PoolHit => "pool_hit",
            EventKind::PoolMiss => "pool_miss",
        }
    }
}

/// One decoded lifecycle event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Nanoseconds since the tracer's origin instant.
    pub ts_ns: u64,
    /// What happened.
    pub kind: EventKind,
    /// Ring index of the recording thread.
    pub worker: u8,
    /// Epoch of the sample (0 for sample-less events).
    pub epoch: u16,
    /// Kind-specific payload (step index, queue id, GPU).
    pub arg: u32,
    /// Global sample sequence number (0 for sample-less events).
    pub seq: u64,
    /// Duration in nanoseconds; 0 for instant events.
    pub dur_ns: u64,
}

impl Event {
    /// Encodes the event into its 4-word wire form.
    // minato-verify: hot-path
    pub fn pack(&self) -> [u64; 4] {
        let w1 = (self.kind as u64)
            | (u64::from(self.worker) << 8)
            | (u64::from(self.epoch) << 16)
            | (u64::from(self.arg) << 32);
        [self.ts_ns, w1, self.seq, self.dur_ns]
    }

    /// Decodes a 4-word wire form; `None` if the kind byte is invalid.
    pub fn unpack(words: [u64; 4]) -> Option<Event> {
        let kind = EventKind::from_u8((words[1] & 0xFF) as u8)?;
        Some(Event {
            ts_ns: words[0],
            kind,
            worker: ((words[1] >> 8) & 0xFF) as u8,
            epoch: ((words[1] >> 16) & 0xFFFF) as u16,
            arg: (words[1] >> 32) as u32,
            seq: words[2],
            dur_ns: words[3],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_round_trips_every_kind() {
        for (i, kind) in EventKind::ALL.iter().enumerate() {
            let ev = Event {
                ts_ns: 123_456_789,
                kind: *kind,
                worker: 7,
                epoch: 3,
                arg: 0xDEAD_BEEF,
                seq: u64::MAX - 5,
                dur_ns: 42,
            };
            assert_eq!(Event::unpack(ev.pack()), Some(ev), "kind #{i}");
        }
    }

    #[test]
    fn invalid_kind_byte_decodes_to_none() {
        assert_eq!(EventKind::from_u8(KIND_COUNT as u8), None);
        assert_eq!(Event::unpack([0, KIND_COUNT as u64, 0, 0]), None);
    }

    #[test]
    fn field_extremes_survive_packing() {
        let ev = Event {
            ts_ns: u64::MAX,
            kind: EventKind::PoolMiss,
            worker: u8::MAX,
            epoch: u16::MAX,
            arg: u32::MAX,
            seq: u64::MAX,
            dur_ns: u64::MAX,
        };
        assert_eq!(Event::unpack(ev.pack()), Some(ev));
    }
}
