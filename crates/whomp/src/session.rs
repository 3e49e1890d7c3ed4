//! Checkpoint support: WHOMP behind the streaming session layer.
//!
//! The profiler's state is its four in-progress Sequitur instances plus
//! the tuple count; [`Sequitur::save_state`] captures a compressor
//! verbatim (nodes, rules, digram index), so a restored profiler
//! continues the stream exactly where the original stopped and the
//! finished grammar is byte-identical to an uninterrupted run's.
//!
//! [`PipelinedWhomp`] shares the state name and the state bytes: its
//! checkpoint is a barrier through the grammar lanes (see the
//! [pipeline docs](crate::pipeline)), and it restores by continuing a
//! restored [`WhompProfiler`] on one worker per dimension. Either
//! engine's checkpoint therefore resumes on the other.

use std::io::{self, Read, Write};

use orp_core::SessionSink;
use orp_format::{read_varint, write_varint};
use orp_sequitur::Sequitur;

use crate::pipeline::DIMS;
use crate::{PipelinedWhomp, WhompProfiler};

fn bad_data(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

impl SessionSink for WhompProfiler {
    const STATE_NAME: &'static str = "whomp-omsg";

    fn save_state(&self, w: &mut impl Write) -> io::Result<()> {
        write_varint(w, self.tuples)?;
        self.instr.save_state(w)?;
        self.group.save_state(w)?;
        self.object.save_state(w)?;
        self.offset.save_state(w)
    }

    fn restore_state(r: &mut impl Read) -> io::Result<Self> {
        let tuples = read_varint(r)?;
        let instr = Sequitur::restore_state(r)?;
        let group = Sequitur::restore_state(r)?;
        let object = Sequitur::restore_state(r)?;
        let offset = Sequitur::restore_state(r)?;
        for s in [&instr, &group, &object, &offset] {
            if s.input_len() != tuples {
                return Err(bad_data("dimension stream length disagrees with tuples"));
            }
        }
        Ok(WhompProfiler {
            instr,
            group,
            object,
            offset,
            tuples,
        })
    }

    fn finalize_profile(self, w: &mut impl Write) -> io::Result<()> {
        self.into_omsg().write_to(w)
    }
}

impl SessionSink for PipelinedWhomp {
    const STATE_NAME: &'static str = WhompProfiler::STATE_NAME;

    fn quiesce(&mut self) {
        self.flush();
    }

    fn save_state(&self, w: &mut impl Write) -> io::Result<()> {
        self.write_state(w)
    }

    fn restore_state(r: &mut impl Read) -> io::Result<Self> {
        WhompProfiler::restore_state(r).map(|p| PipelinedWhomp::from_profiler(p, DIMS.len()))
    }

    fn finalize_profile(self, w: &mut impl Write) -> io::Result<()> {
        let (profiler, _) = self.try_join().map_err(io::Error::other)?;
        profiler.finalize_profile(w)
    }
}

#[cfg(test)]
mod tests {
    use orp_core::{Session, SessionSink};
    use orp_format::{write_varint, ChunkTag, ContainerReader, ContainerWriter};
    use orp_sequitur::Sequitur;
    use orp_trace::{AccessEvent, AllocEvent, AllocSiteId, InstrId, ProbeEvent, RawAddress};

    use crate::WhompProfiler;

    fn workload_events() -> Vec<ProbeEvent> {
        let mut events = Vec::new();
        for k in 0..40u64 {
            events.push(ProbeEvent::Alloc(AllocEvent {
                site: AllocSiteId((k % 2) as u32),
                base: RawAddress(0x1000 + k * 64),
                size: 48,
            }));
        }
        for p in 0..30u64 {
            for k in 0..40u64 {
                events.push(ProbeEvent::Access(AccessEvent::load(
                    InstrId(((k + p) % 5) as u32),
                    RawAddress(0x1000 + k * 64 + 8 * (p % 6)),
                    8,
                )));
            }
        }
        events
    }

    #[test]
    fn checkpointed_whomp_run_finalizes_byte_identically() {
        let events = workload_events();

        let mut uninterrupted = Session::new(WhompProfiler::new());
        uninterrupted.feed(&events);
        let mut reference = Vec::new();
        uninterrupted.finalize(&mut reference).unwrap();

        for cut in [1, events.len() / 3, events.len() / 2, events.len() - 1] {
            let mut first = Session::new(WhompProfiler::new());
            first.feed(&events[..cut]);
            let mut snapshot = Vec::new();
            first.checkpoint(&mut snapshot).unwrap();

            let mut resumed = Session::<WhompProfiler>::resume(&mut snapshot.as_slice())
                .unwrap_or_else(|e| panic!("resume at {cut}: {e}"));
            resumed.feed(&events[cut..]);
            let mut profile = Vec::new();
            resumed.finalize(&mut profile).unwrap();
            assert_eq!(profile, reference, "cut at event {cut}");
        }
    }

    #[test]
    fn state_roundtrip_is_verbatim() {
        let mut session = Session::new(WhompProfiler::new());
        session.feed(&workload_events());
        let mut state = Vec::new();
        session.cdc().sink().save_state(&mut state).unwrap();
        let restored = WhompProfiler::restore_state(&mut state.as_slice()).unwrap();
        let mut again = Vec::new();
        restored.save_state(&mut again).unwrap();
        assert_eq!(state, again);
    }

    #[test]
    fn inconsistent_tuple_count_is_rejected() {
        let mut session = Session::new(WhompProfiler::new());
        session.feed(&workload_events());
        let mut state = Vec::new();
        session.cdc().sink().save_state(&mut state).unwrap();
        // Bump the leading tuple-count varint to disagree with the
        // grammar states behind it.
        state[0] ^= 0x01;
        assert!(WhompProfiler::restore_state(&mut state.as_slice()).is_err());
    }

    #[test]
    fn resume_refuses_a_grammar_whose_rule_list_is_broken() {
        // An empty grammar's state ends with its guard's `prev` and
        // `next` (node 0), no free nodes, one rule (guard 0, no uses),
        // no free rules and no digrams.
        let mut empty = Vec::new();
        Sequitur::new().save_state(&mut empty).unwrap();
        let tail = empty.len() - 8;
        assert_eq!(empty[tail..], [0, 0, 0, 1, 0, 0, 0, 0]);
        let mut nil_prev = empty[..tail].to_vec();
        write_varint(&mut nil_prev, u64::from(u32::MAX)).unwrap();
        nil_prev.extend_from_slice(&empty[tail + 1..]);

        // An empty session's checkpoint, re-encoded with valid CRCs
        // around `instr` as the instruction grammar's state.
        let mut ckpt = Vec::new();
        Session::new(WhompProfiler::new())
            .checkpoint(&mut ckpt)
            .unwrap();
        let reencode = |instr: &[u8]| {
            let mut snks = Vec::new();
            write_varint(&mut snks, WhompProfiler::STATE_NAME.len() as u64).unwrap();
            snks.extend_from_slice(WhompProfiler::STATE_NAME.as_bytes());
            write_varint(&mut snks, 0).unwrap(); // tuples
            snks.extend_from_slice(instr);
            for _ in 1..4 {
                snks.extend_from_slice(&empty);
            }
            let mut reader = ContainerReader::new(ckpt.as_slice()).unwrap();
            let mut writer = ContainerWriter::new(Vec::new()).unwrap();
            while let Some(chunk) = reader.next_chunk().unwrap() {
                let payload = if chunk.tag == ChunkTag::SINK_STATE {
                    &snks
                } else {
                    &chunk.payload
                };
                writer.chunk(chunk.tag, payload).unwrap();
            }
            writer.finish().unwrap()
        };
        assert_eq!(reencode(&empty), ckpt, "re-encoding is faithful");

        let hostile = reencode(&nil_prev);
        let Err(err) = Session::<WhompProfiler>::resume(&mut hostile.as_slice()) else {
            panic!("a NIL guard link must not resume");
        };
        assert!(err.to_string().contains("rule list"), "{err}");
    }
}
