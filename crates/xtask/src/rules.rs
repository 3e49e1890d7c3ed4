//! The analyze rules (see the crate docs for the catalogue).
//!
//! Two layers: the per-file token rules ([`check_file`]), which run on
//! one file's facts in isolation, and the cross-file rules
//! ([`check_workspace`]), which run on the linked [`WorkspaceFacts`] —
//! call-graph panic reachability, decoded-length taint, metric-key
//! consistency against the schema vocabulary, codec-pair completeness
//! over the chunk registry, and decode-path error-type discipline.

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};

use crate::callgraph::{CallGraph, FnId};
use crate::facts::{
    is_crate_root, is_decode_path, is_first_party, is_grammar_hot_path, is_test_tree, FileFacts,
    WorkspaceFacts,
};
use crate::lexer::Kind;
use crate::vocab::{KeyKind, Vocabulary};
use crate::Diagnostic;

/// Rule names a marker or allowlist line may reference.
pub(crate) const RULES: &[&str] = &[
    "no-panic",
    "le-bytes",
    "chunk-match",
    "chunk-registry",
    "forbid-unsafe",
    "no-metrics-in-decode",
    "atomic-artifact-writes",
    "no-siphash-in-hot-paths",
    "panic-reachability",
    "untrusted-length",
    "metric-key",
    "codec-pair",
    "error-type",
];

/// File-level exemptions from `analyze.allow` at the repo root.
///
/// Line format: `<rule> <path> <reason…>`, `#` comments and blank
/// lines ignored. A line with an unknown rule or no reason is itself
/// reported (in [`Allowlist::problems`]) — exemptions must stay
/// auditable.
pub struct Allowlist {
    entries: HashSet<(String, PathBuf)>,
    pub problems: Vec<Diagnostic>,
}

impl Allowlist {
    #[must_use]
    pub fn load(root: &Path) -> Self {
        let path = root.join("analyze.allow");
        let mut entries = HashSet::new();
        let mut problems = Vec::new();
        let Ok(text) = std::fs::read_to_string(&path) else {
            return Allowlist { entries, problems };
        };
        for (idx, line) in text.lines().enumerate() {
            let line_no = u32::try_from(idx).unwrap_or(u32::MAX).saturating_add(1);
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.splitn(3, char::is_whitespace);
            let rule = parts.next().unwrap_or_default();
            let file = parts.next().unwrap_or_default();
            let reason = parts.next().unwrap_or_default().trim();
            if !RULES.contains(&rule) {
                problems.push(Diagnostic {
                    file: PathBuf::from("analyze.allow"),
                    line: line_no,
                    rule: "allowlist",
                    message: format!("unknown rule '{rule}' (known: {})", RULES.join(", ")),
                });
            } else if file.is_empty() || reason.is_empty() {
                problems.push(Diagnostic {
                    file: PathBuf::from("analyze.allow"),
                    line: line_no,
                    rule: "allowlist",
                    message: "format is '<rule> <path> <reason>'; a reason is required".to_owned(),
                });
            } else {
                entries.insert((rule.to_owned(), PathBuf::from(file)));
            }
        }
        Allowlist { entries, problems }
    }

    pub(crate) fn exempts(&self, rule: &str, file: &Path) -> bool {
        self.entries
            .contains(&(rule.to_owned(), file.to_path_buf()))
    }
}

// ---- per-file rule context -----------------------------------------------

/// Borrowed view a per-file rule runs in: the file's facts plus the
/// diagnostics it accumulates (filtered through inline allow markers).
struct RuleCx<'a> {
    f: &'a FileFacts,
    diags: Vec<Diagnostic>,
}

impl RuleCx<'_> {
    fn n(&self) -> usize {
        self.f.sig.len()
    }

    fn s(&self, i: usize) -> &crate::lexer::Token {
        self.f.s(i)
    }

    fn stext(&self, i: usize) -> &str {
        self.f.stext(i)
    }

    fn in_test_span(&self, line: u32) -> bool {
        self.f.in_test_span(line)
    }

    fn report(&mut self, rule: &'static str, line: u32, message: String) {
        if self.f.line_allowed(rule, line) {
            return;
        }
        self.diags.push(Diagnostic {
            file: self.f.rel.clone(),
            line,
            rule,
            message,
        });
    }
}

// ---- per-file rules ------------------------------------------------------

/// Runs every applicable per-file rule on one file, building its facts
/// from source. Cross-file rules need [`check_workspace`].
#[must_use]
pub fn check_file(rel: &Path, src: &str, allowlist: &Allowlist) -> Vec<Diagnostic> {
    check_file_facts(&FileFacts::new(rel, src), allowlist)
}

/// Runs every applicable per-file rule against pre-built facts.
#[must_use]
pub fn check_file_facts(facts: &FileFacts, allowlist: &Allowlist) -> Vec<Diagnostic> {
    let rel = facts.rel.as_path();
    let rel_s = facts.rel_s.as_str();
    let mut cx = RuleCx {
        f: facts,
        diags: facts.marker_problems.clone(),
    };
    if is_decode_path(rel_s) && !is_test_tree(rel_s) && !allowlist.exempts("no-panic", rel) {
        no_panic(&mut cx);
    }
    if is_first_party(rel_s)
        && !rel_s.starts_with("crates/format/src/")
        && !rel_s.starts_with("crates/xtask/")
        && !is_test_tree(rel_s)
        && !allowlist.exempts("le-bytes", rel)
    {
        le_bytes(&mut cx);
    }
    if is_first_party(rel_s) && !is_test_tree(rel_s) && !allowlist.exempts("chunk-match", rel) {
        chunk_match(&mut cx);
    }
    if rel_s == "crates/format/src/chunk.rs" && !allowlist.exempts("chunk-registry", rel) {
        chunk_registry(&mut cx);
    }
    if is_crate_root(rel_s) && !allowlist.exempts("forbid-unsafe", rel) {
        forbid_unsafe(&mut cx);
    }
    if rel_s.starts_with("crates/format/src/")
        && !is_test_tree(rel_s)
        && !allowlist.exempts("no-metrics-in-decode", rel)
    {
        no_metrics_in_decode(&mut cx);
    }
    if is_first_party(rel_s)
        && !rel_s.starts_with("crates/format/src/")
        && !rel_s.starts_with("crates/xtask/")
        && !is_test_tree(rel_s)
        && !allowlist.exempts("atomic-artifact-writes", rel)
    {
        atomic_artifact_writes(&mut cx);
    }
    if is_grammar_hot_path(rel_s)
        && !is_test_tree(rel_s)
        && !allowlist.exempts("no-siphash-in-hot-paths", rel)
    {
        no_siphash_in_hot_paths(&mut cx);
    }
    cx.diags
}

/// `no-panic`: decode paths must turn malformed input into
/// `FormatError`, never a panic.
fn no_panic(cx: &mut RuleCx<'_>) {
    const BANGS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];
    let mut hits = Vec::new();
    for i in 0..cx.n() {
        let t = cx.s(i);
        if cx.in_test_span(t.line) {
            continue;
        }
        let line = t.line;
        // `.unwrap()` / `.expect(`
        if t.text == "."
            && i + 2 < cx.n()
            && matches!(cx.stext(i + 1), "unwrap" | "expect")
            && cx.stext(i + 2) == "("
        {
            hits.push((
                line,
                format!(
                    "{}() in a decode path — malformed input must route through \
                     FormatError; if provably infallible, mark \
                     `// analyze: allow(no-panic): <why>`",
                    cx.stext(i + 1)
                ),
            ));
        }
        // `panic!(` and friends
        if t.kind == Kind::Ident
            && BANGS.contains(&t.text.as_str())
            && i + 1 < cx.n()
            && cx.stext(i + 1) == "!"
        {
            hits.push((
                line,
                format!(
                    "{}! in a decode path — return a FormatError instead",
                    t.text
                ),
            ));
        }
        // Indexing/slicing: `expr[...]` panics on out-of-bounds input.
        if t.text == "["
            && i > 0
            && (cx.s(i - 1).kind == Kind::Ident || matches!(cx.stext(i - 1), ")" | "]"))
            && !matches!(cx.stext(i - 1), "_" | "as")
        {
            // Exclude keywords that precede array types/patterns.
            let prev = cx.stext(i - 1);
            let keyword = matches!(
                prev,
                "let"
                    | "mut"
                    | "ref"
                    | "const"
                    | "static"
                    | "return"
                    | "in"
                    | "of"
                    | "dyn"
                    | "impl"
                    | "where"
                    | "else"
                    | "match"
                    | "if"
                    | "box"
                    | "pub"
                    | "crate"
                    | "move"
                    | "unsafe"
                    | "async"
                    | "type"
                    | "struct"
                    | "enum"
                    | "fn"
            );
            if !keyword {
                hits.push((
                    line,
                    "indexing in a decode path panics on malformed input — use \
                     get()/split_at checked forms, or mark \
                     `// analyze: allow(no-panic): <why>`"
                        .to_owned(),
                ));
            }
        }
    }
    for (line, message) in hits {
        cx.report("no-panic", line, message);
    }
}

/// `le-bytes`: byte-order framing outside `orp-format` re-implements
/// the codecs (and drifts from them).
fn le_bytes(cx: &mut RuleCx<'_>) {
    const FRAMING: &[&str] = &[
        "from_le_bytes",
        "to_le_bytes",
        "from_be_bytes",
        "to_be_bytes",
        "from_ne_bytes",
        "to_ne_bytes",
    ];
    let mut hits = Vec::new();
    for i in 0..cx.n() {
        let t = cx.s(i);
        if t.kind == Kind::Ident && FRAMING.contains(&t.text.as_str()) && !cx.in_test_span(t.line) {
            hits.push((
                t.line,
                format!(
                    "{} is hand-rolled framing — use orp_format's codecs \
                     (read_u32_le/read_u64_le/varints) so the wire format \
                     stays in one crate",
                    t.text
                ),
            ));
        }
    }
    for (line, message) in hits {
        cx.report("le-bytes", line, message);
    }
}

/// `chunk-match`: a `match` whose arms mention `ChunkTag` needs an
/// explicit non-empty catch-all — the tag space is open.
fn chunk_match(cx: &mut RuleCx<'_>) {
    let mut hits = Vec::new();
    let mut i = 0;
    while i < cx.n() {
        if cx.stext(i) != "match" || cx.s(i).kind != Kind::Ident {
            i += 1;
            continue;
        }
        let match_line = cx.s(i).line;
        // Find the body `{`: first brace at paren/bracket depth 0.
        let mut j = i + 1;
        let mut depth = 0i32;
        while j < cx.n() {
            match cx.stext(j) {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth == 0 => break,
                ";" if depth == 0 => break, // not a match expression
                _ => {}
            }
            j += 1;
        }
        if j >= cx.n() || cx.stext(j) != "{" {
            i = j;
            continue;
        }
        let body_start = j + 1;
        let mut braces = 1i32;
        let mut body_end = body_start;
        while body_end < cx.n() && braces > 0 {
            match cx.stext(body_end) {
                "{" => braces += 1,
                "}" => braces -= 1,
                _ => {}
            }
            if braces == 0 {
                break;
            }
            body_end += 1;
        }
        // The rule targets matches *over* tags: ChunkTag in the
        // scrutinee or in an arm pattern. A match on some other
        // (closed, compiler-checked) enum that merely produces tags in
        // its arm bodies is fine.
        let scrutinee_has = (i + 1..j).any(|k| cx.stext(k) == "ChunkTag");
        let mut pattern_has = false;
        {
            let mut depth = 0i32;
            let mut in_pattern = true;
            let mut k = body_start;
            while k < body_end {
                match cx.stext(k) {
                    "{" | "(" | "[" => depth += 1,
                    "}" | ")" | "]" => {
                        depth -= 1;
                        // A depth-0 block arm body just closed: the
                        // next tokens are the next arm's pattern.
                        if depth == 0 {
                            in_pattern = true;
                        }
                    }
                    "=" if depth == 0 && k + 1 < body_end && cx.stext(k + 1) == ">" => {
                        in_pattern = false;
                    }
                    "," if depth == 0 => in_pattern = true,
                    "ChunkTag" if in_pattern && depth == 0 => pattern_has = true,
                    _ => {}
                }
                k += 1;
            }
        }
        if (scrutinee_has || pattern_has) && !cx.in_test_span(match_line) {
            match catch_all(cx, body_start, body_end) {
                CatchAll::Missing => hits.push((
                    match_line,
                    "match over ChunkTag without a catch-all arm — the tag \
                     space is open (KNOWN registry); handle unknown tags \
                     explicitly"
                        .to_owned(),
                )),
                CatchAll::Empty(line) => hits.push((
                    line,
                    "catch-all arm silently drops unknown chunk tags — \
                     surface FormatError::UnknownChunk, count, or log; an \
                     empty body hides corruption"
                        .to_owned(),
                )),
                CatchAll::Ok => {}
            }
        }
        i = body_end + 1;
    }
    for (line, message) in hits {
        cx.report("chunk-match", line, message);
    }
}

enum CatchAll {
    Missing,
    Empty(u32),
    Ok,
}

/// Looks for a catch-all arm (`_ =>` or a lowercase-binding `x =>`)
/// directly at the match body's top level and classifies its body.
fn catch_all(cx: &RuleCx<'_>, start: usize, end: usize) -> CatchAll {
    let mut depth = 0i32;
    let mut k = start;
    while k < end {
        match cx.stext(k) {
            "{" | "(" | "[" => depth += 1,
            "}" | ")" | "]" => depth -= 1,
            _ => {}
        }
        // An arrow at depth 0 whose pattern is a single `_` or a
        // lowercase binding: the pattern token sits right before `=`,
        // preceded by `,` or the body opening.
        if depth == 0 && cx.stext(k) == "=" && k + 1 < end && cx.stext(k + 1) == ">" && k >= 1 {
            let pat = cx.s(k - 1);
            let pat_is_binding = pat.kind == Kind::Ident
                && (pat.text == "_" || pat.text.chars().next().is_some_and(char::is_lowercase));
            // The pattern opens an arm when preceded by the body `{`,
            // an arm-separating `,`, or a block arm body's closing `}`
            // (no comma required after a block).
            let pat_starts_arm =
                k < 2 + start || matches!(cx.stext(k - 2), "," | "{" | "}") || k - 1 == start;
            if pat_is_binding && pat_starts_arm {
                // Classify the arm body.
                let b = k + 2;
                if b < end
                    && ((cx.stext(b) == "{" && b + 1 < end && cx.stext(b + 1) == "}")
                        || (cx.stext(b) == "("
                            && b + 1 < end
                            && cx.stext(b + 1) == ")"
                            && (b + 2 >= end || matches!(cx.stext(b + 2), "," | "}"))))
                {
                    return CatchAll::Empty(pat.line);
                }
                return CatchAll::Ok;
            }
        }
        k += 1;
    }
    CatchAll::Missing
}

/// `chunk-registry`: every `ChunkTag` const in `chunk.rs` must be in
/// the `KNOWN` registry.
fn chunk_registry(cx: &mut RuleCx<'_>) {
    // Declared: `const NAME: ChunkTag =`
    let mut declared = Vec::new();
    for i in 0..cx.n().saturating_sub(4) {
        if cx.stext(i) == "const"
            && cx.stext(i + 2) == ":"
            && cx.stext(i + 3) == "ChunkTag"
            && cx.stext(i + 4) == "="
        {
            declared.push((cx.stext(i + 1).to_owned(), cx.s(i + 1).line));
        }
    }
    // Registered: `ChunkTag::NAME` between `KNOWN` and its terminating
    // `;`.
    let mut registered = HashSet::new();
    if let Some(start) = (0..cx.n()).find(|&i| cx.stext(i) == "KNOWN") {
        let mut i = start;
        while i < cx.n() && cx.stext(i) != ";" {
            if cx.stext(i) == "ChunkTag"
                && i + 3 < cx.n()
                && cx.stext(i + 1) == ":"
                && cx.stext(i + 2) == ":"
            {
                registered.insert(cx.stext(i + 3).to_owned());
            }
            i += 1;
        }
    }
    let mut hits = Vec::new();
    for (name, line) in declared {
        if !registered.contains(&name) {
            hits.push((
                line,
                format!(
                    "ChunkTag::{name} is not in the KNOWN registry — \
                     inspect/skip tooling will treat it as foreign"
                ),
            ));
        }
    }
    for (line, message) in hits {
        cx.report("chunk-registry", line, message);
    }
}

/// `no-metrics-in-decode`: `orp-format` must stay observability-free.
///
/// The zero-overhead guarantee rests on the wire-format crate having
/// no recorder hooks at all: its `IoStats` are plain integers, and the
/// `orp-obs` dependency edge points *at* `orp-format`, never back.
/// Any recorder ident appearing in a decode path means someone started
/// publishing metrics from inside the codec hot loop.
fn no_metrics_in_decode(cx: &mut RuleCx<'_>) {
    const METRICS_IDENTS: &[&str] = &["orp_obs", "Recorder", "StatsRecorder", "NoopRecorder"];
    let mut hits = Vec::new();
    for i in 0..cx.n() {
        let t = cx.s(i);
        if t.kind == Kind::Ident
            && METRICS_IDENTS.contains(&t.text.as_str())
            && !cx.in_test_span(t.line)
        {
            hits.push((
                t.line,
                format!(
                    "{} in orp-format — the wire-format crate must not \
                     depend on the observability layer; count with plain \
                     integers (IoStats) and publish from the caller",
                    t.text
                ),
            ));
        }
    }
    for (line, message) in hits {
        cx.report("no-metrics-in-decode", line, message);
    }
}

/// `atomic-artifact-writes`: artifacts reach disk only through the
/// durable path.
///
/// A direct `File::create` or `fs::write` truncates the destination
/// before the new bytes are durable, so a crash mid-write leaves a
/// torn artifact where a reader expects old-complete or new-complete.
/// Producers go through `orp_format::AtomicFile` /
/// `write_bytes_atomic` (temp sibling, fsync, rename, directory
/// fsync) — which is why the primitive's own crate is exempt.
fn atomic_artifact_writes(cx: &mut RuleCx<'_>) {
    let mut hits = Vec::new();
    for i in 0..cx.n().saturating_sub(3) {
        let t = cx.s(i);
        if t.kind != Kind::Ident
            || cx.in_test_span(t.line)
            || cx.stext(i + 1) != ":"
            || cx.stext(i + 2) != ":"
        {
            continue;
        }
        let callee = cx.stext(i + 3);
        let torn = match t.text.as_str() {
            "File" => matches!(callee, "create" | "create_new"),
            "fs" => callee == "write",
            _ => false,
        };
        if torn {
            hits.push((
                t.line,
                format!(
                    "{}::{callee} truncates the destination before the new \
                     bytes are durable — write artifacts through \
                     orp_format::AtomicFile / write_bytes_atomic, or mark \
                     `// analyze: allow(atomic-artifact-writes): <why>`",
                    t.text
                ),
            ));
        }
    }
    for (line, message) in hits {
        cx.report("atomic-artifact-writes", line, message);
    }
}

/// `no-siphash-in-hot-paths`: grammar crates must not build hash maps
/// with the default hasher.
///
/// `HashMap::new()` / `with_capacity()` are only defined for
/// `RandomState` (SipHash-1-3), which profiling showed dominating the
/// per-symbol cost of grammar construction (DESIGN.md §13). Hot-path
/// maps spell an explicit hasher in the type and construct through
/// `HashMap::default()` — like `sequitur`'s intern map with
/// `FxBuildHasher` — so the fast hasher cannot silently regress back
/// to SipHash. The same applies to `HashSet`. Test code is exempt:
/// differential tests deliberately build SipHash maps to compare
/// against.
fn no_siphash_in_hot_paths(cx: &mut RuleCx<'_>) {
    let mut hits = Vec::new();
    for i in 0..cx.n().saturating_sub(3) {
        let t = cx.s(i);
        if t.kind != Kind::Ident
            || !matches!(t.text.as_str(), "HashMap" | "HashSet")
            || cx.in_test_span(t.line)
            || cx.stext(i + 1) != ":"
            || cx.stext(i + 2) != ":"
        {
            continue;
        }
        let callee = cx.stext(i + 3);
        if matches!(callee, "new" | "with_capacity") {
            hits.push((
                t.line,
                format!(
                    "{}::{callee} pins the default SipHash hasher in a \
                     grammar hot path — annotate the map type with \
                     FxBuildHasher (see orp_sequitur::FxBuildHasher) and \
                     construct with ::default(), or mark \
                     `// analyze: allow(no-siphash-in-hot-paths): <why>`",
                    t.text
                ),
            ));
        }
    }
    for (line, message) in hits {
        cx.report("no-siphash-in-hot-paths", line, message);
    }
}

/// `forbid-unsafe`: crate roots must declare `#![forbid(unsafe_code)]`.
fn forbid_unsafe(cx: &mut RuleCx<'_>) {
    for i in 0..cx.n().saturating_sub(6) {
        if cx.stext(i) == "#"
            && cx.stext(i + 1) == "!"
            && cx.stext(i + 2) == "["
            && cx.stext(i + 3) == "forbid"
            && cx.stext(i + 4) == "("
            && cx.stext(i + 5) == "unsafe_code"
        {
            return;
        }
    }
    cx.report(
        "forbid-unsafe",
        1,
        "crate root lacks #![forbid(unsafe_code)] — add it, or exempt \
         this root in analyze.allow with a reason"
            .to_owned(),
    );
}

// ---- cross-file rules ----------------------------------------------------

/// Verbs that name the reading half of a codec; a `pub fn` in a decode
/// file starting with one is a decode entry point.
const DECODE_VERBS: &[&str] = &[
    "read", "decode", "parse", "restore", "resume", "load", "open",
];

fn has_decode_verb(name: &str) -> bool {
    DECODE_VERBS
        .iter()
        .any(|v| name == *v || name.starts_with(&format!("{v}_")))
}

/// Runs the five cross-file rules over the linked workspace.
/// `schema_rel` is the vocabulary's own path, used to anchor
/// vocabulary-side diagnostics.
#[must_use]
pub fn check_workspace(
    ws: &WorkspaceFacts,
    allowlist: &Allowlist,
    vocab: &Vocabulary,
    schema_rel: &Path,
) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    panic_reachability(ws, allowlist, &mut diags);
    untrusted_length(ws, allowlist, &mut diags);
    metric_key(ws, allowlist, vocab, schema_rel, &mut diags);
    codec_pair(ws, allowlist, &mut diags);
    error_type(ws, allowlist, &mut diags);
    diags
}

/// `panic-reachability`: no function transitively reachable from a
/// decode entry point may unwrap/expect/panic.
///
/// The legacy `no-panic` rule polices decode files line by line; this
/// rule closes the gap it cannot see — helpers *outside* the decode
/// tree (math, containers, grammar internals) that a decoder calls
/// into. The call graph is approximate and name-based
/// ([`CallGraph::build`]), so every finding carries the reconstructed
/// call path for review.
fn panic_reachability(ws: &WorkspaceFacts, allowlist: &Allowlist, diags: &mut Vec<Diagnostic>) {
    const BANGS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];
    let cg = CallGraph::build(ws);
    let mut entries: Vec<FnId> = Vec::new();
    for (fi, file) in ws.files.iter().enumerate() {
        if !is_decode_path(&file.rel_s) || is_test_tree(&file.rel_s) {
            continue;
        }
        for (gi, f) in file.syntax.fns.iter().enumerate() {
            if f.is_pub && has_decode_verb(&f.name) && !file.in_test_span(f.line) {
                entries.push((fi, gi));
            }
        }
    }
    let reached = cg.reachable_from(&entries);
    let mut nodes: Vec<FnId> = reached.keys().copied().collect();
    nodes.sort_unstable();
    for node in nodes {
        let (fi, gi) = node;
        let file = &ws.files[fi];
        // Decode files are already policed line-by-line by no-panic.
        if is_decode_path(&file.rel_s) || allowlist.exempts("panic-reachability", &file.rel) {
            continue;
        }
        let f = &file.syntax.fns[gi];
        let Some((lo, hi)) = f.body else { continue };
        // Name-based resolution can thread through many same-named
        // definitions; collapse repeats and elide long middles so the
        // path stays a review aid, not a wall.
        let mut names = cg.path_to(ws, &reached, node);
        names.dedup();
        let path = if names.len() > 8 {
            let head = names[..4].join(" -> ");
            let tail = names[names.len() - 3..].join(" -> ");
            format!("{head} -> … -> {tail}")
        } else {
            names.join(" -> ")
        };
        for i in lo..hi.min(file.sig.len()) {
            let line = file.s(i).line;
            if file.in_test_span(line) || file.line_allowed("panic-reachability", line) {
                continue;
            }
            let site = if file.stext(i) == "."
                && i + 2 < file.sig.len()
                && matches!(file.stext(i + 1), "unwrap" | "expect")
                && file.stext(i + 2) == "("
            {
                Some(format!("{}()", file.stext(i + 1)))
            } else if file.s(i).kind == Kind::Ident
                && BANGS.contains(&file.stext(i))
                && i + 1 < file.sig.len()
                && file.stext(i + 1) == "!"
            {
                Some(format!("{}!", file.stext(i)))
            } else {
                None
            };
            if let Some(site) = site {
                diags.push(Diagnostic {
                    file: file.rel.clone(),
                    line,
                    rule: "panic-reachability",
                    message: format!(
                        "{site} in `{}` is reachable from a decode entry point \
                         (call path: {path}) — malformed input must not panic; \
                         return a Result, or mark \
                         `// analyze: allow(panic-reachability): <why>`",
                        f.name
                    ),
                });
            }
        }
    }
}

/// Decoded-length taint: the primitive readers whose results an
/// attacker-controlled file determines.
const TAINT_SOURCES: &[&str] = &[
    "read_varint",
    "read_zigzag",
    "read_u16_le",
    "read_u32_le",
    "read_u64_le",
    "read_i64_le",
];

/// How a tainted variable's comparison partner sanitizes (or fails
/// to): comparing against a literal/const/`.len()` bounds the value;
/// comparing against another decoded length proves nothing.
enum Cmp {
    Always,
    Ident(String),
}

enum TaintEv {
    Taint,
    Clear,
    Sanitize(Cmp),
}

/// `untrusted-length`: decoded lengths must be bounded before they
/// size an allocation.
///
/// Intraprocedural and syntactic: a `let` whose right-hand side calls
/// a [`TAINT_SOURCES`] reader taints the binding; a comparison against
/// a trusted bound (literal, `UPPER_CASE` const, `.len()`, any
/// untainted expression) or an inline `.min(…)`/`.clamp(…)` sanitizes
/// it; `with_capacity`/`reserve`/`vec![…; n]` sized by a still-tainted
/// value is a finding. Comparing one decoded length against another
/// decoded length does *not* sanitize — both came from the same
/// untrusted file.
fn untrusted_length(ws: &WorkspaceFacts, allowlist: &Allowlist, diags: &mut Vec<Diagnostic>) {
    for file in &ws.files {
        if !is_decode_path(&file.rel_s)
            || is_test_tree(&file.rel_s)
            || allowlist.exempts("untrusted-length", &file.rel)
        {
            continue;
        }
        for f in &file.syntax.fns {
            let Some((lo, hi)) = f.body else { continue };
            if file.in_test_span(f.line) {
                continue;
            }
            untrusted_length_in_body(file, lo, hi.min(file.sig.len()), diags);
        }
    }
}

fn untrusted_length_in_body(file: &FileFacts, lo: usize, hi: usize, diags: &mut Vec<Diagnostic>) {
    let is_lower_ident = |i: usize| {
        file.s(i).kind == Kind::Ident
            && file
                .stext(i)
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_lowercase() || c == '_')
    };
    // Pass 1: taint/clear events from `let` statements (`let n = …;`,
    // `let Ok(n)/Some(n) = …`).
    let mut events: Vec<(u32, String, TaintEv)> = Vec::new();
    for i in lo..hi {
        if file.stext(i) != "let" || file.s(i).kind != Kind::Ident {
            continue;
        }
        let mut j = i + 1;
        if j < hi && file.stext(j) == "mut" {
            j += 1;
        }
        let name_at = if j < hi && is_lower_ident(j) {
            Some(j)
        } else if j + 3 < hi
            && matches!(file.stext(j), "Some" | "Ok")
            && file.stext(j + 1) == "("
            && is_lower_ident(j + 2)
            && file.stext(j + 3) == ")"
        {
            Some(j + 2)
        } else {
            None
        };
        let Some(name_at) = name_at else { continue };
        // The `=` introducing the initializer, then its extent to the
        // statement's `;` (or an `else`/`{` for let-else / if-let).
        let mut k = name_at + 1;
        let mut depth = 0i32;
        while k < hi {
            match file.stext(k) {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                "=" if depth == 0 && file.stext(k + 1) != "=" => break,
                ";" if depth == 0 => break,
                _ => {}
            }
            k += 1;
        }
        if k >= hi || file.stext(k) != "=" {
            continue;
        }
        let mut has_source = false;
        let mut has_clamp = false;
        let mut m = k + 1;
        let mut depth = 0i32;
        while m < hi {
            match file.stext(m) {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                ";" if depth <= 0 => break,
                "." if m + 2 < hi
                    && matches!(file.stext(m + 1), "min" | "clamp")
                    && file.stext(m + 2) == "(" =>
                {
                    has_clamp = true;
                }
                t if file.s(m).kind == Kind::Ident && TAINT_SOURCES.contains(&t) => {
                    has_source = true;
                }
                _ => {}
            }
            if depth < 0 {
                break;
            }
            m += 1;
        }
        let name = file.stext(name_at).to_owned();
        let line = file.s(name_at).line;
        if has_source && !has_clamp {
            events.push((line, name, TaintEv::Taint));
        } else {
            events.push((line, name, TaintEv::Clear));
        }
    }
    // Pass 2: sanitizing comparisons (`n < LIMIT`, `buf.len() < n`,
    // `n == expected`).
    for k in lo + 1..hi {
        let (left, right) = match file.stext(k) {
            "<" | ">" => {
                let r = if k + 1 < hi && file.stext(k + 1) == "=" {
                    k + 2
                } else {
                    k + 1
                };
                (k - 1, r)
            }
            "=" if k + 2 < hi
                && file.stext(k + 1) == "="
                && !matches!(file.stext(k - 1), "=" | "!" | "<" | ">") =>
            {
                (k - 1, k + 2)
            }
            _ => continue,
        };
        if right >= hi {
            continue;
        }
        for (side, other) in [(left, right), (right, left)] {
            if !is_lower_ident(side) {
                continue;
            }
            let cmp = if is_lower_ident(other)
                && !(other + 2 < hi
                    && file.stext(other + 1) == "."
                    && file.stext(other + 2) == "len")
            {
                Cmp::Ident(file.stext(other).to_owned())
            } else {
                Cmp::Always
            };
            events.push((
                file.s(side).line,
                file.stext(side).to_owned(),
                TaintEv::Sanitize(cmp),
            ));
        }
    }
    // Pass 3: allocation sinks.
    let mut k = lo;
    while k < hi {
        // `Vec::with_capacity(n)` / `.with_capacity(n)` / `.reserve(n)`
        // — the size expression starts right after the `(`.
        let is_cap_call = (file.stext(k) == "with_capacity"
            && k > 0
            && (file.stext(k - 1) == "." || (k >= 2 && file.stext(k - 1) == ":")))
            || (matches!(file.stext(k), "reserve" | "reserve_exact")
                && k > 0
                && file.stext(k - 1) == ".");
        let (args, sink_line) = if is_cap_call && k + 1 < hi && file.stext(k + 1) == "(" {
            let close = close_from(file, k + 1, hi);
            ((k + 2, close), file.s(k).line)
        } else if file.stext(k) == "vec"
            && k + 2 < hi
            && file.stext(k + 1) == "!"
            && matches!(file.stext(k + 2), "[" | "(")
        {
            // `vec![elem; n]` — the length is the part after the
            // top-level `;`.
            let close = close_from(file, k + 2, hi);
            let mut semi = None;
            let mut depth = 0i32;
            for m in k + 3..close {
                match file.stext(m) {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    ";" if depth == 0 => {
                        semi = Some(m);
                        break;
                    }
                    _ => {}
                }
            }
            match semi {
                Some(semi) => ((semi + 1, close), file.s(k).line),
                None => {
                    k += 1;
                    continue;
                }
            }
        } else {
            k += 1;
            continue;
        };
        k = args.1.max(k + 1);
        if file.in_test_span(sink_line) || file.line_allowed("untrusted-length", sink_line) {
            continue;
        }
        // An inline `.min(…)`/`.clamp(…)` in the size expression bounds
        // it regardless of taint.
        let mut clamped = false;
        let mut direct_source = false;
        let mut tainted_var: Option<String> = None;
        for m in args.0..args.1 {
            if file.stext(m) == "."
                && m + 2 < args.1
                && matches!(file.stext(m + 1), "min" | "clamp")
                && file.stext(m + 2) == "("
            {
                clamped = true;
            }
            if file.s(m).kind == Kind::Ident {
                if TAINT_SOURCES.contains(&file.stext(m)) {
                    direct_source = true;
                }
                if tainted_var.is_none()
                    && is_lower_ident(m)
                    && is_tainted_at(&events, file.stext(m), sink_line, 0)
                {
                    tainted_var = Some(file.stext(m).to_owned());
                }
            }
        }
        if clamped {
            continue;
        }
        let message = if let Some(name) = tainted_var {
            format!(
                "allocation sized by decoded length `{name}` with no bound — \
                 clamp (`.min(…)`) or validate against a trusted limit first, \
                 or mark `// analyze: allow(untrusted-length): <why>`"
            )
        } else if direct_source {
            "allocation sized directly by a decoded length with no bound — \
             clamp (`.min(…)`) before allocating, or mark \
             `// analyze: allow(untrusted-length): <why>`"
                .to_owned()
        } else {
            continue;
        };
        diags.push(Diagnostic {
            file: file.rel.clone(),
            line: sink_line,
            rule: "untrusted-length",
            message,
        });
    }
}

/// Whether `name` is tainted at `line` given the body's event list.
/// `depth` caps the recursion when two tainted values are compared
/// against each other (neither bounds the other).
fn is_tainted_at(events: &[(u32, String, TaintEv)], name: &str, line: u32, depth: u8) -> bool {
    let mut tainted = false;
    let mut taint_line = 0u32;
    for (l, n, ev) in events {
        if n != name || *l > line {
            continue;
        }
        match ev {
            TaintEv::Taint => {
                tainted = true;
                taint_line = *l;
            }
            TaintEv::Clear => tainted = false,
            TaintEv::Sanitize(_) => {}
        }
    }
    if !tainted {
        return false;
    }
    for (l, n, ev) in events {
        if n != name || *l < taint_line || *l > line {
            continue;
        }
        if let TaintEv::Sanitize(cmp) = ev {
            let bounds = match cmp {
                Cmp::Always => true,
                Cmp::Ident(other) => depth >= 2 || !is_tainted_at(events, other, *l, depth + 1),
            };
            if bounds {
                return false;
            }
        }
    }
    true
}

/// Finds the sig index of the delimiter matching the one at `open`,
/// bounded by `hi`.
fn close_from(file: &FileFacts, open: usize, hi: usize) -> usize {
    let open_text = file.stext(open).to_owned();
    let want = match open_text.as_str() {
        "(" => ")",
        "[" => "]",
        _ => "}",
    };
    let mut depth = 0i32;
    for j in open..hi {
        let t = file.stext(j);
        if t == open_text {
            depth += 1;
        } else if t == want {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
    }
    hi
}

/// Replaces every `{…}` hole in a format!-style key literal with the
/// canonical `{}` so hole contents (named args, format specs) don't
/// affect matching.
fn normalize_holes(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    let mut chars = v.chars();
    while let Some(c) = chars.next() {
        if c == '{' {
            for d in chars.by_ref() {
                if d == '}' {
                    break;
                }
            }
            out.push_str("{}");
        } else {
            out.push(c);
        }
    }
    out
}

/// Whether a (hole-normalized) string literal plausibly is a metric
/// key: lowercase dotted segments, no spaces, not a file name.
fn looks_like_metric_key(v: &str) -> bool {
    const FILE_EXTS: &[&str] = &[
        "rs", "json", "jsonl", "schema", "toml", "md", "orp", "txt", "lock", "yml", "yaml", "tmp",
    ];
    if !v.contains('.') {
        return false;
    }
    if !v.chars().all(|c| {
        c.is_ascii_lowercase() || c.is_ascii_digit() || matches!(c, '.' | '_' | '-' | '{' | '}')
    }) {
        return false;
    }
    let segs: Vec<&str> = v.split('.').collect();
    segs.len() >= 2
        && segs.iter().all(|s| !s.is_empty())
        && segs.last().is_some_and(|s| !FILE_EXTS.contains(s))
}

fn kind_name(kind: KeyKind) -> &'static str {
    match kind {
        KeyKind::Counter => "counter",
        KeyKind::Observe => "observe",
        KeyKind::Span => "span",
        KeyKind::Ratio => "ratio",
    }
}

/// Whether a code-side key/template is covered by the vocabulary.
fn metric_key_ok(vocab: &Vocabulary, kind: Option<KeyKind>, template: &str) -> bool {
    if template.contains("{}") {
        vocab.template_matches(kind, template)
    } else {
        match kind {
            Some(k) => vocab.matches(k, template),
            None => [
                KeyKind::Counter,
                KeyKind::Observe,
                KeyKind::Span,
                KeyKind::Ratio,
            ]
            .iter()
            .any(|&k| vocab.matches(k, template)),
        }
    }
}

/// `metric-key`: code labels and the schema vocabulary must agree in
/// both directions.
///
/// Forward: every literal key passed to `Recorder::counter`/
/// `observe`/`span`, and every `opt.*`/`grammar.*`/`io.*` label
/// anywhere in first-party code, must be enumerated in
/// `schemas/run_report.schema`. Backward: every `key` line in the
/// vocabulary must have at least one witnessing label in code —
/// vocabulary entries for metrics nobody emits are dead weight that
/// silently green-lights typos.
fn metric_key(
    ws: &WorkspaceFacts,
    allowlist: &Allowlist,
    vocab: &Vocabulary,
    schema_rel: &Path,
    diags: &mut Vec<Diagnostic>,
) {
    const RECORDER_METHODS: &[(&str, KeyKind)] = &[
        ("counter", KeyKind::Counter),
        ("observe", KeyKind::Observe),
        ("span", KeyKind::Span),
    ];
    const ENFORCED_PREFIXES: &[&str] = &["opt.", "grammar.", "io."];
    // No vocabulary at this root (fixture trees, bootstrap): idle
    // rather than flag every key against an empty set.
    if vocab.keys.is_empty() {
        return;
    }
    let mut witnesses: HashSet<String> = HashSet::new();
    for file in &ws.files {
        if !is_first_party(&file.rel_s)
            || is_test_tree(&file.rel_s)
            || file.rel_s.starts_with("crates/xtask/")
        {
            continue;
        }
        let exempt = allowlist.exempts("metric-key", &file.rel);
        let mut recorder_lits: HashSet<usize> = HashSet::new();
        for call in &file.syntax.calls {
            let Some(&(_, kind)) = RECORDER_METHODS
                .iter()
                .find(|(m, _)| call.is_method && !call.is_macro && call.name == *m)
            else {
                continue;
            };
            if file.in_test_span(call.line) {
                continue;
            }
            // The key is the first argument; take its first string
            // literal (covers both `"k"` and `&format!("k.{}", …)`).
            let first_arg_end = {
                let mut depth = 0i32;
                let mut end = call.args.1;
                for m in call.args.0..call.args.1 {
                    match file.stext(m) {
                        "(" | "[" | "{" => depth += 1,
                        ")" | "]" | "}" => depth -= 1,
                        "," if depth == 0 => {
                            end = m;
                            break;
                        }
                        _ => {}
                    }
                }
                end
            };
            let Some(lit) = file
                .syntax
                .strings
                .iter()
                .find(|l| l.sig_index >= call.args.0 && l.sig_index < first_arg_end)
            else {
                continue;
            };
            recorder_lits.insert(lit.sig_index);
            let template = normalize_holes(&lit.value);
            witnesses.insert(template.clone());
            if exempt
                || file.line_allowed("metric-key", lit.line)
                || metric_key_ok(vocab, Some(kind), &template)
            {
                continue;
            }
            diags.push(Diagnostic {
                file: file.rel.clone(),
                line: lit.line,
                rule: "metric-key",
                message: format!(
                    "{} key \"{template}\" is not in the schemas/run_report.schema \
                     vocabulary — add a `key` line there or fix the label",
                    kind_name(kind)
                ),
            });
        }
        for lit in &file.syntax.strings {
            if recorder_lits.contains(&lit.sig_index) || file.in_test_span(lit.line) {
                continue;
            }
            let template = normalize_holes(&lit.value);
            if !looks_like_metric_key(&template) {
                continue;
            }
            witnesses.insert(template.clone());
            if !ENFORCED_PREFIXES.iter().any(|p| template.starts_with(p)) {
                continue;
            }
            if exempt
                || file.line_allowed("metric-key", lit.line)
                || metric_key_ok(vocab, None, &template)
            {
                continue;
            }
            diags.push(Diagnostic {
                file: file.rel.clone(),
                line: lit.line,
                rule: "metric-key",
                message: format!(
                    "label \"{template}\" is not in the schemas/run_report.schema \
                     vocabulary — add a `key` line there or fix the label"
                ),
            });
        }
    }
    if allowlist.exempts("metric-key", schema_rel) {
        return;
    }
    for kp in &vocab.keys {
        if !witnesses.iter().any(|t| vocab.witnesses(&kp.pattern, t)) {
            diags.push(Diagnostic {
                file: schema_rel.to_path_buf(),
                line: kp.line,
                rule: "metric-key",
                message: format!(
                    "vocabulary {} key `{}` has no corresponding label in code — \
                     remove the entry or wire up the metric",
                    kind_name(kp.kind),
                    kp.pattern
                ),
            });
        }
    }
}

/// `codec-pair`: every chunk tag with an encoder must have the full
/// support set — a decoder, an inspect arm in the CLI, and a
/// corruption test.
///
/// Evidence is collected from where each `ChunkTag::NAME` (or a
/// `ProfileKind` variant whose `primary_chunk` is that tag) is
/// referenced: inside a fn whose name carries a write-side verb →
/// encoder; read-side verb → decoder; any reference in `src/bin/**` →
/// inspect; any reference in a test context that also speaks the
/// corruption vocabulary (corrupt/truncate/flip/torn/damage/fault) →
/// corruption test.
fn codec_pair(ws: &WorkspaceFacts, allowlist: &Allowlist, diags: &mut Vec<Diagnostic>) {
    const ENCODE_VERBS: &[&str] = &[
        "write", "encode", "emit", "append", "save", "seal", "finish", "persist",
    ];
    const DECODE_SIDE_VERBS: &[&str] = &[
        "read", "decode", "parse", "restore", "resume", "load", "open", "skip", "inspect", "next",
    ];
    const CORRUPTION_WORDS: &[&str] = &["corrupt", "truncat", "flip", "torn", "damage", "fault"];
    let chunk_rel = Path::new("crates/format/src/chunk.rs");
    if ws.chunk_tags.is_empty() || allowlist.exempts("codec-pair", chunk_rel) {
        return;
    }
    let verb_in = |name: &str, verbs: &[&str]| name.split('_').any(|seg| verbs.contains(&seg));

    #[derive(Default)]
    struct Evidence {
        encoder: bool,
        decoder: bool,
        inspect: bool,
        corruption: bool,
    }
    let mut evidence: HashMap<&str, Evidence> = ws
        .chunk_tags
        .iter()
        .map(|(t, _)| (t.as_str(), Evidence::default()))
        .collect();

    for file in &ws.files {
        let in_bin = file.rel_s.starts_with("src/bin/");
        let codec_scope = is_first_party(&file.rel_s)
            && !is_test_tree(&file.rel_s)
            && !file.rel_s.starts_with("crates/xtask/");
        let test_region = is_test_tree(&file.rel_s) || !file.test_spans.is_empty();
        let speaks_corruption = test_region
            && (CORRUPTION_WORDS
                .iter()
                .any(|w| file.rel_s.to_lowercase().contains(w))
                || file.tokens.iter().any(|t| {
                    let lower = t.text.to_lowercase();
                    CORRUPTION_WORDS.iter().any(|w| lower.contains(w))
                }));
        for r in &file.syntax.path_refs {
            let tags: Vec<&str> = if r.qualifier == "ChunkTag" {
                vec![r.name.as_str()]
            } else {
                ws.primary_tag_of(&r.name).into_iter().collect()
            };
            let fn_name = r
                .enclosing
                .map(|f| file.syntax.fns[f].name.as_str())
                .unwrap_or_default();
            let in_test = file.in_test_span(r.line);
            for tag in tags {
                let Some(ev) = evidence.get_mut(tag) else {
                    continue;
                };
                if codec_scope && !in_test {
                    if verb_in(fn_name, ENCODE_VERBS) {
                        ev.encoder = true;
                    }
                    if verb_in(fn_name, DECODE_SIDE_VERBS) {
                        ev.decoder = true;
                    }
                }
                if in_bin {
                    ev.inspect = true;
                }
                if speaks_corruption {
                    ev.corruption = true;
                }
            }
        }
    }

    let chunk_facts = ws
        .files
        .iter()
        .find(|f| f.rel_s == "crates/format/src/chunk.rs");
    for (tag, line) in &ws.chunk_tags {
        let ev = &evidence[tag.as_str()];
        if !ev.encoder {
            continue;
        }
        if chunk_facts.is_some_and(|f| f.line_allowed("codec-pair", *line)) {
            continue;
        }
        let mut missing = Vec::new();
        if !ev.decoder {
            missing.push("a decoder (fn with a read/decode/parse/… verb referencing it)");
        }
        if !ev.inspect {
            missing.push("an inspect arm (reference under src/bin/)");
        }
        if !ev.corruption {
            missing.push("a corruption test (test code naming corrupt/truncate/flip/torn)");
        }
        if missing.is_empty() {
            continue;
        }
        diags.push(Diagnostic {
            file: chunk_rel.to_path_buf(),
            line: *line,
            rule: "codec-pair",
            message: format!(
                "ChunkTag::{tag} has an encoder but lacks {} — every encoded \
                 chunk needs its full decode/inspect/corruption support, or mark \
                 `// analyze: allow(codec-pair): <why>` at the declaration",
                missing.join(", ")
            ),
        });
    }
}

/// `error-type`: public decode-path functions surface failures as
/// `Result` with a `FormatError`-family error — never `Option`, never
/// nothing.
fn error_type(ws: &WorkspaceFacts, allowlist: &Allowlist, diags: &mut Vec<Diagnostic>) {
    for file in &ws.files {
        if !is_decode_path(&file.rel_s)
            || is_test_tree(&file.rel_s)
            || allowlist.exempts("error-type", &file.rel)
        {
            continue;
        }
        for f in &file.syntax.fns {
            if !f.is_pub
                || !has_decode_verb(&f.name)
                || file.in_test_span(f.line)
                || file.line_allowed("error-type", f.line)
            {
                continue;
            }
            let Some(problem) = decode_ret_problem(&f.ret) else {
                continue;
            };
            diags.push(Diagnostic {
                file: file.rel.clone(),
                line: f.line,
                rule: "error-type",
                message: format!("pub decode-path fn `{}` {problem}", f.name),
            });
        }
    }
}

/// Classifies a decode fn's return-type tokens; `Some` carries the
/// problem description.
fn decode_ret_problem(ret: &[String]) -> Option<String> {
    let Some(rpos) = ret.iter().position(|t| t == "Result") else {
        if ret.iter().any(|t| t == "Option") {
            return Some(
                "returns Option — a caller cannot tell absence from corruption; \
                 return Result with a FormatError-family error"
                    .to_owned(),
            );
        }
        let shown = if ret.is_empty() {
            "()".to_owned()
        } else {
            ret.join(" ")
        };
        return Some(format!(
            "returns `{shown}` — decode failures must surface as a \
             FormatError-family Result"
        ));
    };
    // `io::Result<T>` carries io::Error implicitly — accepted at the
    // I/O boundary.
    if rpos >= 3 && ret[rpos - 1] == ":" && ret[rpos - 2] == ":" && ret[rpos - 3] == "io" {
        return None;
    }
    let rest = &ret[rpos + 1..];
    if rest.first().map(String::as_str) != Some("<") {
        return None; // an aliased Result with a pinned error type
    }
    let mut depth = 0i32;
    let mut args: Vec<Vec<&str>> = vec![Vec::new()];
    for t in rest {
        match t.as_str() {
            "<" => {
                depth += 1;
                if depth == 1 {
                    continue;
                }
            }
            ">" => {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            }
            "," if depth == 1 => {
                args.push(Vec::new());
                continue;
            }
            _ => {}
        }
        if let Some(last) = args.last_mut() {
            last.push(t);
        }
    }
    if args.len() < 2 {
        return None; // single-parameter Result alias
    }
    let err = args.last()?;
    if err
        .iter()
        .any(|t| t.ends_with("Error") || *t == "Infallible")
    {
        return None;
    }
    Some(format!(
        "returns Result with error type `{}` — use a FormatError-family \
         error (or io::Error at the I/O boundary)",
        err.join("")
    ))
}
