//! Reads the counters, ratios and span totals out of an `orprof-cli
//! --metrics-out` run report (one `"name": value` pair per line).

use std::collections::BTreeMap;
use std::path::Path;

/// Every numeric entry of a report, by name; a span `s` appears as
/// `s.total_nanos`.
pub type Report = BTreeMap<String, f64>;

/// Reads the report at `path`.
pub fn read(path: &Path) -> Result<Report, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let mut out = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim().trim_end_matches(',');
        let Some((name, value)) = line
            .strip_prefix('"')
            .and_then(|rest| rest.split_once("\": "))
        else {
            continue;
        };
        if let Ok(v) = value.parse::<f64>() {
            out.insert(name.to_owned(), v);
        } else if let Some(total) = value
            .split_once("\"total_nanos\": ")
            .and_then(|(_, rest)| rest.split([',', '}']).next())
            .and_then(|v| v.trim().parse::<f64>().ok())
        {
            out.insert(format!("{name}.total_nanos"), total);
        }
    }
    Ok(out)
}

/// Sums entry `name` over several reports (0 where absent).
pub fn sum(reports: &[Report], name: &str) -> f64 {
    reports.iter().filter_map(|r| r.get(name)).sum()
}
