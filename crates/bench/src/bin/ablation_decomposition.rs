//! Ablation: how much of WHOMP's win comes from object-relative
//! *translation* and how much from horizontal *decomposition*?
//!
//! Three whole-stream representations of the same traces:
//!
//! * `RASG` — fused raw `(instruction, address)` records, one grammar;
//! * `OR-fused` — object-relative tuples, but compressed as one stream
//!   of dictionary-tokenized `(instr, group, object, offset)` records
//!   (translation without decomposition; the dictionary is charged to
//!   the profile);
//! * `OMSG` — the full design: one grammar per dimension.

#![forbid(unsafe_code)]

use std::collections::HashMap;

use orp_bench::{collect_omsg, collect_rasg, run, scale_from_env};
use orp_core::{Cdc, Omc, OrSink, OrTuple};
use orp_report::Table;
use orp_sequitur::{varint_len, Sequitur};
use orp_workloads::{spec_suite, RunConfig};

/// Object-relative, tokenized, single-stream profiler.
#[derive(Default)]
struct OrFused {
    dict: HashMap<(u32, u32, u64, u64), u64>,
    dict_bytes: u64,
    seq: Sequitur,
}

impl OrSink for OrFused {
    fn tuple(&mut self, t: &OrTuple) {
        let key = (t.instr.0, t.group.0, t.object.0, t.offset);
        let next = self.dict.len() as u64;
        let sym = *self.dict.entry(key).or_insert_with(|| {
            // The dictionary stores the four components once per
            // distinct record.
            next
        });
        if sym == next {
            self.dict_bytes += varint_len(u64::from(key.0))
                + varint_len(u64::from(key.1))
                + varint_len(key.2)
                + varint_len(key.3);
        }
        self.seq.push(sym);
    }
}

fn main() {
    let scale = scale_from_env();
    let cfg = RunConfig::default();
    println!("== Ablation: translation vs decomposition (scale {scale}) ==\n");

    let mut table = Table::new([
        "benchmark",
        "RASG bytes",
        "OR-fused bytes",
        "OMSG bytes",
        "translation gain",
        "decomposition gain",
    ]);
    for workload in spec_suite(scale) {
        let rasg = collect_rasg(workload.as_ref(), &cfg).encoded_bytes();
        let omsg = collect_omsg(workload.as_ref(), &cfg).encoded_bytes();

        let mut cdc = Cdc::new(Omc::new(), OrFused::default());
        run(workload.as_ref(), &cfg, &mut cdc);
        let fused_profiler = cdc.into_parts().1;
        let or_fused =
            fused_profiler.seq.into_grammar().encoded_bytes() + fused_profiler.dict_bytes;

        table.row_vec(vec![
            workload.name().to_owned(),
            rasg.to_string(),
            or_fused.to_string(),
            omsg.to_string(),
            format!("{:.1}%", (1.0 - or_fused as f64 / rasg as f64) * 100.0),
            format!("{:.1}%", (1.0 - omsg as f64 / or_fused as f64) * 100.0),
        ]);
    }
    println!("{}", table.render());
    println!("translation gain: RASG -> OR-fused (object-relativity alone)");
    println!("decomposition gain: OR-fused -> OMSG (splitting the dimensions)");
    println!("\n-- CSV --\n{}", table.to_csv());
}
