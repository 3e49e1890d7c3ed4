//! Output checks and the fidelity oracle, all run after the timed
//! region. Every check counts as one attempted job in the result and as
//! a failed one when it does not hold.
//!
//! * Allocator invariance: each profile is byte-identical to the
//!   profile of the same program recorded under a second heap seed.
//! * WHOMP losslessness: each OMSG expands to exactly the tuple stream
//!   an independent `Omc::translate_reference` translation produces.
//! * Daemon identity: the profile `orpd` serves is byte-identical to
//!   the CLI profile of the same trace.
//! * Fidelity: MDF and stride results are scored against the
//!   `orp_leap::lossless` ground-truth profilers, never against LEAP.

use std::collections::BTreeSet;
use std::path::Path;

use orp_core::{Cdc, GroupId, ObjectSerial, Omc, OrSink, OrTuple, Timestamp};
use orp_leap::errors::score_pairs;
use orp_leap::lossless::{LosslessDependenceProfiler, LosslessStrideProfiler, StrideStats};
use orp_leap::strides::{stride_stats, STRONG_STRIDE_THRESHOLD};
use orp_leap::{mdf, DependenceProfile, LeapProfile};
use orp_trace::{InstrId, ProbeEvent};
use orp_whomp::Omsg;

use crate::e2e::{job_args, load_events, out_path, record_all, serve_args, Res};
use crate::proc::{self, Daemon};
use crate::{churn, second_seed, Ctx, Outcome, Recorded, Workload, CHURN_PROGRAM, PROGRAMS};

/// Both lossless profilers behind one sink.
#[derive(Default)]
struct Lossless {
    deps: LosslessDependenceProfiler,
    strides: LosslessStrideProfiler,
}

impl OrSink for Lossless {
    fn tuple(&mut self, t: &OrTuple) {
        self.deps.tuple(t);
        self.strides.tuple(t);
    }
}

impl Lossless {
    fn into_profiles(self) -> (DependenceProfile, StrideStats) {
        (self.deps.into_profile(), self.strides.into_profile())
    }
}

/// The ground truth for one recorded program: its events through the
/// collector into the lossless profilers.
fn truth(events: &[ProbeEvent]) -> (DependenceProfile, StrideStats) {
    let mut cdc = Cdc::new(Omc::new(), Lossless::default());
    for &ev in events {
        orp_trace::ProbeSink::event(&mut cdc, ev);
    }
    cdc.into_parts().1.into_profiles()
}

/// Fidelity scores accumulated over programs.
#[derive(Debug, Default)]
pub struct Score {
    mdf_sum: f64,
    mdf_programs: u64,
    pairs: u64,
    strided: u64,
    found: u64,
}

impl Score {
    fn add(
        &mut self,
        estimate: &(DependenceProfile, StrideStats),
        truth: &(DependenceProfile, StrideStats),
    ) {
        let errors = score_pairs(&estimate.0, &truth.0);
        if !errors.is_empty() {
            let within = errors
                .iter()
                .filter(|e| e.error_percent().abs() <= 10.0)
                .count();
            self.mdf_sum += within as f64 / errors.len() as f64;
            self.mdf_programs += 1;
            self.pairs += errors.len() as u64;
        }
        let real: Vec<InstrId> = truth
            .1
            .strongly_strided(STRONG_STRIDE_THRESHOLD)
            .into_iter()
            .map(|(i, _)| i)
            .collect();
        let found: BTreeSet<InstrId> = estimate
            .1
            .strongly_strided(STRONG_STRIDE_THRESHOLD)
            .into_iter()
            .map(|(i, _)| i)
            .collect();
        self.strided += real.len() as u64;
        self.found += real.iter().filter(|i| found.contains(i)).count() as u64;
    }

    fn add_leap(&mut self, profile: &LeapProfile, truth: &(DependenceProfile, StrideStats)) {
        let estimate = (mdf::dependence_frequencies(profile), stride_stats(profile));
        self.add(&estimate, truth);
    }
}

/// What the checks measured besides pass/fail.
#[derive(Debug, Default)]
pub struct Checked {
    profile_bytes: u64,
    profiles: usize,
    score: Score,
}

impl Checked {
    /// Adds `profile_bytes`, `mdf_within10_pct` and `stride_score_pct`.
    pub fn report(&self, outcome: &mut Outcome) {
        let s = &self.score;
        outcome.metric(
            "profile_bytes",
            self.profile_bytes as f64,
            "bytes",
            format!("{} profiles, one pass", self.profiles),
        );
        outcome.metric(
            "mdf_within10_pct",
            100.0 * s.mdf_sum / s.mdf_programs.max(1) as f64,
            "%",
            format!(
                "mean over {} programs, {} store->load pairs",
                s.mdf_programs, s.pairs
            ),
        );
        outcome.metric(
            "stride_score_pct",
            if s.strided == 0 {
                // Nothing to miss: the convention `stride_score` users
                // in this repository follow for an empty reference.
                100.0
            } else {
                100.0 * s.found as f64 / s.strided as f64
            },
            "%",
            format!("{} of {} strongly strided instructions", s.found, s.strided),
        );
    }
}

fn read(path: &Path) -> Res<Vec<u8>> {
    std::fs::read(path).map_err(|e| format!("read {}: {e}", path.display()))
}

/// Translates `events` independently of the collector: the OMC's
/// ordered-map reference lookup, without the page index or the memo.
fn reference_tuples(events: &[ProbeEvent]) -> Vec<OrTuple> {
    let mut omc = Omc::new();
    let mut tuples = Vec::new();
    for ev in events {
        let now = Timestamp(tuples.len() as u64);
        match *ev {
            ProbeEvent::Alloc(a) => {
                let _ = omc.on_alloc(a.site, a.base.0, a.size, now);
            }
            ProbeEvent::Free(f) => {
                let _ = omc.on_free(f.base.0, now);
            }
            ProbeEvent::Access(a) => {
                if let Some((group, object, offset)) = omc.translate_reference(a.addr.0) {
                    tuples.push(OrTuple {
                        instr: a.instr,
                        kind: a.kind,
                        group,
                        object,
                        offset,
                        time: now,
                        size: a.size,
                    });
                }
            }
        }
    }
    tuples
}

/// Checks one OMSG against the reference translation and scores its
/// expansion, with kinds, sizes and times taken from the reference.
fn check_omsg(
    name: &str,
    bytes: &[u8],
    events: &[ProbeEvent],
    truth: &(DependenceProfile, StrideStats),
    score: &mut Score,
    outcome: &mut Outcome,
) {
    let reference = reference_tuples(events);
    let expanded = match Omsg::read_from(&mut &bytes[..]) {
        Ok(omsg) => omsg.expand(),
        Err(e) => {
            outcome.check(false, &format!("{name}: OMSG does not decode: {e}"));
            return;
        }
    };
    let same = expanded.len() == reference.len()
        && expanded.iter().zip(&reference).all(|(&(i, g, o, f), t)| {
            (i, g, o, f)
                == (
                    u64::from(t.instr.0),
                    u64::from(t.group.0),
                    t.object.0,
                    t.offset,
                )
        });
    outcome.check(
        same,
        &format!("{name}: OMSG expands to the reference tuples"),
    );
    let mut lossless = Lossless::default();
    for (&(i, g, o, f), t) in expanded.iter().zip(&reference) {
        lossless.tuple(&OrTuple {
            instr: InstrId(u32::try_from(i).unwrap_or(u32::MAX)),
            group: GroupId(u32::try_from(g).unwrap_or(u32::MAX)),
            object: ObjectSerial(o),
            offset: f,
            ..*t
        });
    }
    score.add(&lossless.into_profiles(), truth);
}

/// Checks of a CLI workload's profiles in `out_dir`.
pub fn cli_checks(
    ctx: &Ctx,
    programs: &[Recorded],
    out_dir: &Path,
    outcome: &mut Outcome,
) -> Res<Checked> {
    let seed2 = second_seed(ctx.seed);
    let second = if ctx.workload == Workload::LeapLiveSampled {
        programs.to_vec()
    } else {
        record_all(ctx, &PROGRAMS, seed2, &ctx.work.join("seed2"))?
    };
    let out2 = ctx.work.join("out2");
    std::fs::create_dir_all(&out2).map_err(|e| e.to_string())?;
    let mut checked = Checked::default();
    for (p, p2) in programs.iter().zip(&second) {
        let bytes = read(&out_path(out_dir, p))?;
        checked.profile_bytes += bytes.len() as u64;
        checked.profiles += 1;

        let other = out_path(&out2, p);
        let job = proc::run_job(&ctx.cli, &job_args(ctx, p, &p2.trace, seed2, &other))
            .map_err(|e| format!("spawn check job: {e}"))?;
        let invariant = job.ok && read(&other)? == bytes;
        outcome.check(
            invariant,
            &format!("{}: profile identical under heap seed {seed2}", p.name),
        );

        let events = load_events(&p.trace)?;
        let truth = truth(&events);
        if ctx.workload == Workload::WhompReplay {
            check_omsg(p.name, &bytes, &events, &truth, &mut checked.score, outcome);
        } else {
            match LeapProfile::read_from(&mut &bytes[..]) {
                Ok(profile) => checked.score.add_leap(&profile, &truth),
                Err(e) => outcome.check(false, &format!("{}: LEAP profile: {e}", p.name)),
            }
        }
    }
    Ok(checked)
}

/// Checks of `orpd-churn`, against a fresh daemon that serves the
/// churn trace and the seven programs once each: every served profile
/// is byte-identical to the CLI profile of the same trace and is scored
/// for fidelity; the timed daemon's tenant profiles in `daemon_dir`
/// match the CLI too; and the churn profile is identical under the
/// second heap seed.
pub fn churn_checks(
    ctx: &Ctx,
    churn: &Recorded,
    daemon_dir: &Path,
    outcome: &mut Outcome,
) -> Res<Checked> {
    let dir = ctx.work.join("served");
    let mut inputs = record_all(ctx, &PROGRAMS, ctx.seed, &dir)?;
    inputs.push(churn.clone());
    let socket = ctx.work.join("check.sock");
    let served_dir = dir.join("orpd");
    let args = serve_args(&socket, &served_dir, churn.events, &dir.join("serve.json"));
    let daemon = Daemon::start(&ctx.cli, &args, &socket).map_err(|e| format!("serve: {e}"))?;
    for p in &inputs {
        let ok = churn::stream_once(&socket, p.name, &load_events(&p.trace)?);
        outcome.check(ok, &format!("{}: served in one clean session", p.name));
    }
    daemon.stop().map_err(|e| format!("serve: {e}"))?;

    let mut checked = Checked::default();
    let mut churn_cli = Vec::new();
    for p in &inputs {
        let cli_out = dir.join(format!("{}.cli.orp", p.name));
        let job = proc::run_job(&ctx.cli, &job_args(ctx, p, &p.trace, ctx.seed, &cli_out))
            .map_err(|e| format!("spawn check job: {e}"))?;
        let cli_bytes = if job.ok { read(&cli_out)? } else { Vec::new() };
        let served = read(&out_path(&served_dir, p))?;
        outcome.check(
            job.ok && served == cli_bytes,
            &format!("{}: served profile identical to the CLI profile", p.name),
        );
        match LeapProfile::read_from(&mut &served[..]) {
            Ok(profile) => checked
                .score
                .add_leap(&profile, &truth(&load_events(&p.trace)?)),
            Err(e) => outcome.check(false, &format!("{}: served LEAP profile: {e}", p.name)),
        }
        churn_cli = cli_bytes;
    }
    for t in 0..crate::TENANTS {
        let bytes = read(&daemon_dir.join(format!("t{t}.orp")))?;
        outcome.check(
            bytes == churn_cli,
            &format!("tenant t{t}: served profile identical to the CLI profile"),
        );
    }
    checked.profile_bytes = churn_cli.len() as u64;
    checked.profiles = 1;

    let seed2 = second_seed(ctx.seed);
    let second = record_all(ctx, &[CHURN_PROGRAM], seed2, &ctx.work.join("seed2"))?.remove(0);
    let other = ctx.work.join("churn.seed2.orp");
    let job = proc::run_job(
        &ctx.cli,
        &job_args(ctx, churn, &second.trace, seed2, &other),
    )
    .map_err(|e| format!("spawn check job: {e}"))?;
    outcome.check(
        job.ok && read(&other)? == churn_cli,
        &format!("churn: profile identical under heap seed {seed2}"),
    );
    Ok(checked)
}
