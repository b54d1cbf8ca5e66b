//! `xtask` — in-repo workspace automation:
//!
//! * `cargo run -p xtask -- lint` — repo-local lint (below).
//! * `cargo run -p xtask --release -- bench [--quick] [--out PATH]
//!   [--label STR] [--scenario NAME]...` — the zero-dependency benchmark
//!   harness (see [`bench`]).
//! * `cargo run -p xtask -- bench-verify PATH` — structural check of a
//!   bench JSON report (the CI smoke gate).
//! * `cargo run -p xtask -- bench-compare NEW BASELINE [--tolerance PCT] [--geomean]`
//!   — regression gate comparing two bench reports (see [`bench::compare`]).
//! * `cargo run -p xtask --release -- chaos [--quick]` — the seeded
//!   fault-injection regression suite (see [`chaos`]).
//! * `cargo run -p xtask --release -- schedcheck [--quick]` — the
//!   bitwise-determinism sanitizer: seeded workloads re-run under
//!   perturbed schedules must reproduce identical results and traffic
//!   (see [`schedcheck`]).
//!
//! The `lint` task enforces repo-local rules that `rustc` and `clippy`
//! (which is not guaranteed to exist in the offline toolchain) do not:
//!
//! * **no-unwrap** — `.unwrap()` / `.expect(` are forbidden in library
//!   code. Recoverable paths must return `Result`; genuinely impossible
//!   cases carry `// lint: allow(unwrap): <why>` on the same or the
//!   previous line. Test code (`tests/`, `benches/`, `examples/`, and
//!   everything after `#[cfg(test)]` in a source file) is exempt.
//! * **no-float-eq** — comparing against a float literal with `==`/`!=`
//!   is forbidden in library code; use a tolerance or
//!   `// lint: allow(float-eq): <why>` for exact-representation cases
//!   (comparisons against zero where the value was assigned, not computed).
//! * **par-confinement** — `std::thread` and channel types are allowed
//!   only inside `crates/par`; every other crate must go through the
//!   `Machine`/`Ctx` abstraction so the cost model sees all parallelism.
//! * **no-raw-comm** — raw point-to-point traffic (`ctx.send(` /
//!   `ctx.recv(`) is allowed only inside `crates/par` (which implements
//!   it) and the planned-exchange layer under
//!   `crates/core/src/dist/exchange` (the module plus its `replay` child).
//!   Everything else must route through a `CommPlan` or a
//!   collective, so every message is scheduled, counted, and replayable.
//!   Escape hatch: `// lint: allow(raw-comm): <why>`.
//! * **no-alloc-in-hot** — allocating constructs (`Vec::new`, `vec![`,
//!   `with_capacity`, `.collect(`, `.to_vec(`, `.clone(`, `Box::new`,
//!   `format!`, `String::new`) are forbidden in the declared hot modules
//!   ([`HOT_MODULES`]): the sparse work-row and tile kernels, the serial
//!   triangular-solve functions, and the whole `CommPlan` replay half.
//!   A listed file or function that no longer exists is a violation too.
//!   The scan is a token walk over the blanked text — macro
//!   invocations are first-class tokens, so `vec![` in a string or
//!   comment can't fire and `Avec![` can't hide. Backed at run time by
//!   the allocation-audit regions and the `zero-steady-alloc` bench gate.
//!   Escape hatch: `// lint: allow(alloc-in-hot): <why>`.
//! * **no-reserved-tag** — building a tag with `|`/`+`/`^`/`*` on
//!   `RESERVED_TAG_BASE` is allowed only inside `crates/par`; the
//!   namespace above the base belongs to the VM's collectives and
//!   protocol traffic, and a user tag constructed there would collide
//!   with them. Comparing against the base stays legal. Escape hatch:
//!   `// lint: allow(reserved-tag): <why>`.
//! * **no-storage-poke** — reaching into sparse-storage internals
//!   (`.row_ptr()` / `.col_idx()` on CSR, `.brow_ptr()` / `.bcol_idx()` /
//!   `.tile_values()` / `.tile_masks()` on BCSR) is allowed only inside
//!   `crates/sparse`; every other crate must go through the logical
//!   accessors (`row`, `block_row`, `get`, `spmv`, …) so storage layout
//!   stays a private contract of the sparse crate. Escape hatch:
//!   `// lint: allow(storage-poke): <why>`.
//! * **dep-allowlist** — every `Cargo.toml` may depend only on in-repo
//!   `pilut-*` path crates (plus `criterion`, only in the excluded
//!   `crates/bench`). This is what keeps the tier-1 gate offline-safe.
//! * **doc-pub-fn** — every `pub fn` in `crates/*/src` carries a doc
//!   comment (`///` or `#[doc = ...]`).
//!
//! Before any source rule runs, the file goes through a small in-tree
//! lexer ([`blank_noncode`]) that blanks line comments, doc comments,
//! nested block comments, and the bodies of string / raw-string /
//! byte-string / char literals while preserving line structure — so the
//! pattern rules only ever see code, and multi-line literals cannot hide
//! or fake a violation.
//!
//! A `#[test]` at the bottom runs the lint over the live workspace, so
//! plain `cargo test` fails if a violation lands.

use std::fmt;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

mod bench;
mod chaos;
mod modelcheck;
mod schedcheck;
mod sweep;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("bench") => match bench::run(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("xtask bench: {e}");
                ExitCode::FAILURE
            }
        },
        Some("bench-verify") => match bench::verify(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("xtask bench-verify: {e}");
                ExitCode::FAILURE
            }
        },
        Some("bench-compare") => match bench::compare(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("xtask bench-compare: {e}");
                ExitCode::FAILURE
            }
        },
        Some("chaos") => match chaos::run(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("xtask chaos: {e}");
                ExitCode::FAILURE
            }
        },
        Some("schedcheck") => match schedcheck::run(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("xtask schedcheck: {e}");
                ExitCode::FAILURE
            }
        },
        Some("modelcheck") => match modelcheck::run(&args[1..]) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("xtask modelcheck: {e}");
                ExitCode::FAILURE
            }
        },
        Some("lint") => {
            let root = workspace_root();
            let violations = run_lint(&root);
            if violations.is_empty() {
                println!("xtask lint: clean");
                ExitCode::SUCCESS
            } else {
                for v in &violations {
                    println!("{v}");
                }
                println!("xtask lint: {} violation(s)", violations.len());
                ExitCode::FAILURE
            }
        }
        _ => {
            eprintln!(
                "usage: cargo run -p xtask -- lint | bench [flags] | bench-verify <file> [--slack PCT] \
                 | bench-compare <new> <baseline> [--tolerance PCT] [--geomean] | chaos [--quick] \
                 | schedcheck [--quick] | modelcheck [--quick]"
            );
            ExitCode::FAILURE
        }
    }
}

/// The repo root, resolved from this crate's manifest directory so the
/// task works from any working directory.
fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        // lint: allow(unwrap): CARGO_MANIFEST_DIR is compile-time and two levels deep
        .unwrap()
        .parent()
        // lint: allow(unwrap): CARGO_MANIFEST_DIR is compile-time and two levels deep
        .unwrap()
        .to_path_buf()
}

/// One finding: file, 1-based line, rule id, and the offending text.
#[derive(Debug)]
struct Violation {
    file: String,
    line: usize,
    rule: &'static str,
    text: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file,
            self.line,
            self.rule,
            self.text.trim()
        )
    }
}

/// Runs every rule over the workspace rooted at `root`.
fn run_lint(root: &Path) -> Vec<Violation> {
    let mut violations = Vec::new();
    // Library source rules: the five algorithm crates, the root facade, and
    // xtask itself — tooling is held to the same unwrap/float-eq discipline
    // (its grep patterns live in string literals, which the rules blank out).
    let lib_src: &[&str] = &[
        "crates/sparse/src",
        "crates/graph/src",
        "crates/par/src",
        "crates/core/src",
        "crates/solver/src",
        "crates/xtask/src",
        "src",
    ];
    for dir in lib_src {
        let in_par = *dir == "crates/par/src";
        for file in rust_files(&root.join(dir)) {
            let label = rel_label(root, &file);
            match std::fs::read_to_string(&file) {
                Ok(content) => {
                    violations.extend(lint_source(&label, &content, in_par));
                }
                Err(e) => violations.push(Violation {
                    file: label,
                    line: 0,
                    rule: "io",
                    text: format!("unreadable: {e}"),
                }),
            }
        }
    }
    violations.extend(stale_hot_module_violations(HOT_MODULES, |label| {
        std::fs::read_to_string(root.join(label)).ok()
    }));
    // Manifest allowlist: every Cargo.toml in the repo, including the
    // workspace-excluded bench crate.
    for file in manifest_files(root) {
        let label = rel_label(root, &file);
        let is_bench = label.starts_with("crates/bench");
        match std::fs::read_to_string(&file) {
            Ok(content) => violations.extend(lint_manifest(&label, &content, is_bench)),
            Err(e) => violations.push(Violation {
                file: label,
                line: 0,
                rule: "io",
                text: format!("unreadable: {e}"),
            }),
        }
    }
    violations.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    violations
}

/// All `.rs` files under `dir`, recursively.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    walk(dir, &mut |p| {
        if p.extension().is_some_and(|e| e == "rs") {
            out.push(p.to_path_buf());
        }
    });
    out.sort();
    out
}

/// All `Cargo.toml` files in the repo, skipping `target/` and `.git/`.
fn manifest_files(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    walk(root, &mut |p| {
        if p.file_name().is_some_and(|n| n == "Cargo.toml") {
            out.push(p.to_path_buf());
        }
    });
    out.sort();
    out
}

fn walk(dir: &Path, visit: &mut dyn FnMut(&Path)) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            let name = entry.file_name();
            if name == "target" || name == ".git" {
                continue;
            }
            walk(&path, visit);
        } else {
            visit(&path);
        }
    }
}

fn rel_label(root: &Path, file: &Path) -> String {
    file.strip_prefix(root)
        .unwrap_or(file)
        .display()
        .to_string()
        .replace('\\', "/")
}

/// True when line `i` (0-based) of `lines` carries the given allow marker
/// on itself or on the previous line.
fn allowed(lines: &[&str], i: usize, marker: &str) -> bool {
    let tag = format!("lint: allow({marker})");
    lines[i].contains(&tag) || (i > 0 && lines[i - 1].contains(&tag))
}

/// Raw storage accessors only `crates/sparse` may call: the index arrays
/// of CSR and the tile arrays of BCSR. The value arrays (`.values()`,
/// `.values_mut()`) are deliberately not matched — the names collide with
/// `HashMap` iteration — but any layout-dependent poke needs the index
/// arrays too, which these patterns do catch.
const STORAGE_POKES: &[&str] = &[
    ".row_ptr()",
    ".col_idx()",
    ".brow_ptr()",
    ".bcol_idx()",
    ".tile_values()",
    ".tile_masks()",
];

/// Source-code rules over one file. `in_par` exempts the file from the
/// thread-confinement rule.
fn lint_source(label: &str, content: &str, in_par: bool) -> Vec<Violation> {
    let mut out = Vec::new();
    let lines: Vec<&str> = content.lines().collect();
    // Lex the whole file once: the pattern rules below run on the blanked
    // text, where every comment, doc comment, and literal body is spaces,
    // so prose can never trip a code rule. Allow markers and `///` doc
    // detection intentionally read the *raw* lines — they live in comments.
    let blanked = blank_noncode(content);
    let blanked_lines: Vec<&str> = blanked.lines().collect();
    let mut in_tests = false;
    for (i, raw) in lines.iter().enumerate() {
        let code = blanked_lines.get(i).copied().unwrap_or("");
        if code.contains("#[cfg(test)]") {
            // Convention in this repo: the test module is the tail of the
            // file, so everything after the marker is test code.
            in_tests = true;
        }
        if in_tests {
            continue;
        }
        if (code.contains(".unwrap()") || code.contains(".expect("))
            && !allowed(&lines, i, "unwrap")
        {
            out.push(Violation {
                file: label.to_string(),
                line: i + 1,
                rule: "no-unwrap",
                text: raw.to_string(),
            });
        }
        if float_literal_cmp(code) && !allowed(&lines, i, "float-eq") {
            out.push(Violation {
                file: label.to_string(),
                line: i + 1,
                rule: "no-float-eq",
                text: raw.to_string(),
            });
        }
        if !in_par
            && (code.contains("std::thread")
                || code.contains("mpsc")
                || code.contains("thread::spawn"))
            && !allowed(&lines, i, "thread")
        {
            out.push(Violation {
                file: label.to_string(),
                line: i + 1,
                rule: "par-confinement",
                text: raw.to_string(),
            });
        }
        let comm_exempt = in_par || label.starts_with("crates/core/src/dist/exchange");
        if !comm_exempt
            && (code.contains("ctx.send(") || code.contains("ctx.recv("))
            && !allowed(&lines, i, "raw-comm")
        {
            out.push(Violation {
                file: label.to_string(),
                line: i + 1,
                rule: "no-raw-comm",
                text: raw.to_string(),
            });
        }
        if !in_par && reserved_tag_arith(code) && !allowed(&lines, i, "reserved-tag") {
            out.push(Violation {
                file: label.to_string(),
                line: i + 1,
                rule: "no-reserved-tag",
                text: raw.to_string(),
            });
        }
        if !label.starts_with("crates/sparse/src")
            && STORAGE_POKES.iter().any(|p| code.contains(p))
            && !allowed(&lines, i, "storage-poke")
        {
            out.push(Violation {
                file: label.to_string(),
                line: i + 1,
                rule: "no-storage-poke",
                text: raw.to_string(),
            });
        }
        if label.starts_with("crates/") {
            if let Some(v) = missing_doc_violation(label, &lines, i, code) {
                out.push(v);
            }
        }
    }
    // The tag-discipline rule runs over the whole blanked text rather than
    // per line: a call's argument list regularly spans lines.
    if !in_par {
        out.extend(untagged_send_violations(label, &lines, &blanked));
    }
    out.extend(alloc_in_hot_violations(label, &lines, &blanked_lines));
    out
}

/// The declared hot modules of the `no-alloc-in-hot` rule: files whose
/// steady-state functions must not allocate. `"*"` covers the whole file
/// (minus the `#[cfg(test)]` tail); otherwise only the named functions are
/// policed, so constructors and one-shot setup stay free to allocate.
/// These are exactly the paths the allocation-audit regions gate at run
/// time — the lint catches the regression at review time, the
/// `zero-steady-alloc` bench gate catches whatever the lexer cannot see.
/// A listed file or function that no longer exists is itself a violation
/// ([`stale_hot_module_violations`]), so coverage cannot lapse silently.
const HOT_MODULES: &[(&str, &[&str])] = &[
    (
        "crates/sparse/src/workrow.rs",
        &[
            "occupy",
            "set_lane",
            "drop_pos",
            "drain_sorted_lanes_into",
            "drain_sorted_into",
            "axpy",
            "add",
            "set",
            "get",
            "lane",
            "contains",
            "clear",
        ],
    ),
    ("crates/sparse/src/tile.rs", &["*"]),
    (
        "crates/core/src/factors.rs",
        &["sweep", "solve_into", "solve_panel_into"],
    ),
    ("crates/core/src/dist/exchange/replay.rs", &["*"]),
];

/// Allocation tokens the hot-path rule recognizes on a blanked code line.
/// The scan is a real token walk, not a substring grep: macro invocations
/// (`vec![`, `format!`) are first-class tokens, `Type::new` requires the
/// actual `Vec`/`Box`/`String` path segment on its left, and the method
/// names only fire as calls (`.collect(`), never as bare identifiers in
/// a path or pattern.
#[derive(Debug, PartialEq)]
enum HotTok<'a> {
    Ident(&'a str),
    /// `name!` — a macro invocation, bang included in the recognition.
    Macro(&'a str),
    /// `::`
    PathSep,
    /// `.`
    Dot,
    /// Any other single punctuation character (`(`, `[`, `,`, …).
    Punct(char),
}

/// Tokenizes one blanked line for the hot-path allocation scan.
fn hot_tokens(code: &str) -> Vec<HotTok<'_>> {
    let bytes = code.as_bytes();
    let mut toks = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        let c = bytes[i] as char;
        if c.is_ascii_alphabetic() || c == '_' {
            let start = i;
            while i < bytes.len()
                && ((bytes[i] as char).is_ascii_alphanumeric() || bytes[i] == b'_')
            {
                i += 1;
            }
            if bytes.get(i) == Some(&b'!') && bytes.get(i + 1) != Some(&b'=') {
                toks.push(HotTok::Macro(&code[start..i]));
                i += 1;
            } else {
                toks.push(HotTok::Ident(&code[start..i]));
            }
            continue;
        }
        if c == ':' && bytes.get(i + 1) == Some(&b':') {
            toks.push(HotTok::PathSep);
            i += 2;
            continue;
        }
        if c == '.' {
            toks.push(HotTok::Dot);
            i += 1;
            continue;
        }
        if !c.is_ascii_whitespace() && !c.is_ascii_alphanumeric() {
            toks.push(HotTok::Punct(c));
        }
        i += 1;
    }
    toks
}

/// The first allocating construct on a blanked line, by token walk:
/// `vec![` / `format!` macros, `Vec::new` / `Box::new` / `String::new`
/// paths, and the allocating method calls `.with_capacity(` / `.collect(`
/// / `.to_vec(` / `.clone(` (also reached via `::`, as in
/// `Vec::with_capacity(`).
fn hot_alloc_token(code: &str) -> Option<&'static str> {
    const ALLOC_METHODS: &[(&str, &'static str)] = &[
        ("with_capacity", ".with_capacity("),
        ("collect", ".collect("),
        ("to_vec", ".to_vec("),
        ("clone", ".clone("),
    ];
    let toks = hot_tokens(code);
    for (k, t) in toks.iter().enumerate() {
        match t {
            HotTok::Macro("vec") => return Some("vec!["),
            HotTok::Macro("format") => return Some("format!"),
            HotTok::Ident("new")
                if k >= 2
                    && toks[k - 1] == HotTok::PathSep
                    && matches!(
                        toks[k - 2],
                        HotTok::Ident("Vec") | HotTok::Ident("Box") | HotTok::Ident("String")
                    ) =>
            {
                return Some(match toks[k - 2] {
                    HotTok::Ident("Vec") => "Vec::new",
                    HotTok::Ident("Box") => "Box::new",
                    _ => "String::new",
                });
            }
            HotTok::Ident(name) => {
                let is_call = toks.get(k + 1) == Some(&HotTok::Punct('('));
                let via_recv = k >= 1 && matches!(toks[k - 1], HotTok::Dot | HotTok::PathSep);
                if is_call && via_recv {
                    if let Some((_, tag)) = ALLOC_METHODS.iter().find(|(m, _)| m == name) {
                        return Some(tag);
                    }
                }
            }
            _ => {}
        }
    }
    None
}

/// The function name declared on a blanked line, if any.
fn fn_decl_name(code: &str) -> Option<&str> {
    let pos = code.find("fn ")?;
    // `fn` must be its own keyword, not the tail of an identifier.
    if pos > 0 && code[..pos].ends_with(|c: char| c.is_ascii_alphanumeric() || c == '_') {
        return None;
    }
    let rest = code[pos + 3..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .unwrap_or(rest.len());
    (end > 0).then(|| &rest[..end])
}

/// The `no-alloc-in-hot` rule: allocating constructs are forbidden in the
/// declared hot modules ([`HOT_MODULES`]). Escape hatch:
/// `// lint: allow(alloc-in-hot): <why>` — for genuinely cold paths inside
/// a hot file (error formatting, build-time setup the function list could
/// not express).
fn alloc_in_hot_violations(label: &str, lines: &[&str], blanked_lines: &[&str]) -> Vec<Violation> {
    let Some((_, hot_fns)) = HOT_MODULES.iter().find(|(file, _)| *file == label) else {
        return Vec::new();
    };
    let whole_file = hot_fns.contains(&"*");
    let mut out = Vec::new();
    let mut in_hot_fn = false;
    for (i, code) in blanked_lines.iter().enumerate() {
        if code.contains("#[cfg(test)]") {
            // Same tail convention as the per-line rules.
            break;
        }
        if let Some(name) = fn_decl_name(code) {
            in_hot_fn = hot_fns.iter().any(|f| *f == name);
        }
        if !(whole_file || in_hot_fn) {
            continue;
        }
        if let Some(tok) = hot_alloc_token(code) {
            if !allowed(lines, i, "alloc-in-hot") {
                out.push(Violation {
                    file: label.to_string(),
                    line: i + 1,
                    rule: "no-alloc-in-hot",
                    text: format!("{} — {}", tok, lines.get(i).copied().unwrap_or("").trim()),
                });
            }
        }
    }
    out
}

/// Keeps the `no-alloc-in-hot` coverage honest: the rule looks hot modules
/// up by file label, so a deleted or renamed file, or a listed function
/// that no longer exists outside the test tail, would silently stop being
/// policed. Each such entry is reported as a violation instead. `read`
/// returns a file's source by label, `None` when it does not exist.
fn stale_hot_module_violations(
    modules: &[(&str, &[&str])],
    read: impl Fn(&str) -> Option<String>,
) -> Vec<Violation> {
    let mut out = Vec::new();
    for &(file, hot_fns) in modules {
        let stale = |text: String| Violation {
            file: file.to_string(),
            line: 0,
            rule: "no-alloc-in-hot",
            text,
        };
        let Some(src) = read(file) else {
            out.push(stale("declared hot module does not exist".to_string()));
            continue;
        };
        let blanked = blank_noncode(&src);
        let declared: Vec<&str> = blanked
            .lines()
            .take_while(|l| !l.contains("#[cfg(test)]"))
            .filter_map(fn_decl_name)
            .collect();
        for f in hot_fns
            .iter()
            .filter(|f| **f != "*" && !declared.contains(f))
        {
            out.push(stale(format!("declared hot function `{f}` does not exist")));
        }
    }
    out
}

/// The `no-untagged-send` rule: every `ctx.send` / `ctx.send_as` call site
/// outside `crates/par` must pass a *named* tag — a `tags::` constant or a
/// value derived from one — never a bare integer literal. Literal tags
/// bypass the protocol-namespace discipline the static `CommPlan` analysis
/// and the per-tag counters are built on (two protocols colliding on tag
/// `3` is exactly the class of bug the namespace scheme exists to prevent).
/// For `send_as`, both the wire tag and the stats tag are checked.
fn untagged_send_violations(label: &str, lines: &[&str], blanked: &str) -> Vec<Violation> {
    let mut out = Vec::new();
    let blanked_lines: Vec<&str> = blanked.lines().collect();
    // Same convention as the per-line rules: the test module is the tail.
    let cutoff = blanked_lines
        .iter()
        .position(|l| l.contains("#[cfg(test)]"))
        .unwrap_or(usize::MAX);
    for (call, tag_args) in [("ctx.send(", &[1usize][..]), ("ctx.send_as(", &[1, 2][..])] {
        let mut start = 0;
        while let Some(pos) = blanked[start..].find(call) {
            let at = start + pos;
            start = at + call.len();
            let line_idx = blanked[..at].bytes().filter(|&b| b == b'\n').count();
            if line_idx >= cutoff || allowed(lines, line_idx, "untagged-send") {
                continue;
            }
            let args = &blanked[at + call.len()..];
            for &k in tag_args {
                let literal = nth_top_level_arg(args, k)
                    .is_some_and(|a| a.trim().starts_with(|c: char| c.is_ascii_digit()));
                if literal {
                    out.push(Violation {
                        file: label.to_string(),
                        line: line_idx + 1,
                        rule: "no-untagged-send",
                        text: lines.get(line_idx).copied().unwrap_or("").to_string(),
                    });
                    break;
                }
            }
        }
    }
    out
}

/// Argument `k` (0-based) of a call whose argument list starts at the
/// beginning of `s` (just past the opening paren): splits on top-level
/// commas, tracking bracket depth so nested calls and literals don't
/// confuse the count. `None` when the list ends first.
fn nth_top_level_arg(s: &str, k: usize) -> Option<&str> {
    let mut depth = 0usize;
    let mut arg_start = 0usize;
    let mut idx = 0usize;
    for (i, c) in s.char_indices() {
        match c {
            '(' | '[' | '{' => depth += 1,
            ')' | ']' | '}' => {
                if depth == 0 {
                    return (idx == k).then(|| &s[arg_start..i]);
                }
                depth -= 1;
            }
            ',' if depth == 0 => {
                if idx == k {
                    return Some(&s[arg_start..i]);
                }
                idx += 1;
                arg_start = i + 1;
            }
            _ => {}
        }
    }
    None
}

/// Detects arithmetic on `RESERVED_TAG_BASE` — `|`, `+`, `^`, or `*`
/// adjacent to the constant builds a tag *inside* the namespace the VM
/// keeps for its collectives and protocol traffic, which only `crates/par`
/// may do. Comparisons (`tag >= RESERVED_TAG_BASE`) stay legal: that is
/// how user code classifies tags. Escape hatch:
/// `// lint: allow(reserved-tag): <why>`.
fn reserved_tag_arith(code: &str) -> bool {
    const NAME: &str = "RESERVED_TAG_BASE";
    let mut start = 0;
    while let Some(pos) = code[start..].find(NAME) {
        let at = start + pos;
        // The character after the constant, skipping whitespace.
        let next = code[at + NAME.len()..].trim_start().chars().next();
        // The character before any path prefix (`pilut_par::Ctx::`), so
        // `Ctx::RESERVED_TAG_BASE | x` sees the `|` on its left… which is
        // nothing; and `x | Ctx::RESERVED_TAG_BASE` walks back over the
        // path to find the `|`.
        let prev = code[..at]
            .trim_end_matches(|c: char| c.is_ascii_alphanumeric() || c == '_' || c == ':')
            .trim_end()
            .chars()
            .last();
        let arith = |c: Option<char>| matches!(c, Some('|' | '+' | '^' | '*'));
        if arith(next) || arith(prev) {
            return true;
        }
        start = at + NAME.len();
    }
    false
}

/// A whole-file lexer that replaces every non-code character with a space:
/// line comments (including `///` and `//!` docs), nested block comments,
/// and the bodies of string, raw-string, byte-string, and char literals.
/// Newlines are preserved so the output lines up with the input
/// line-for-line, and literal *delimiters* are kept so the blanked text
/// still reads as shaped code. Lifetimes (`'a`) are recognized and left
/// intact rather than being mistaken for an unterminated char literal —
/// the failure mode that forced the old per-line stripper to ignore
/// multi-line constructs entirely.
fn blank_noncode(content: &str) -> String {
    let chars: Vec<char> = content.chars().collect();
    let n = chars.len();
    let mut out = String::with_capacity(content.len());
    let blank = |out: &mut String, c: char| out.push(if c == '\n' { '\n' } else { ' ' });
    let mut i = 0;
    while i < n {
        let c = chars[i];
        // Line comment — blank to end of line (the newline itself is kept
        // by the outer loop).
        if c == '/' && chars.get(i + 1) == Some(&'/') {
            while i < n && chars[i] != '\n' {
                out.push(' ');
                i += 1;
            }
            continue;
        }
        // Block comment — Rust nests them.
        if c == '/' && chars.get(i + 1) == Some(&'*') {
            let mut depth = 0usize;
            while i < n {
                if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                    depth += 1;
                    out.push_str("  ");
                    i += 2;
                } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    out.push_str("  ");
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    blank(&mut out, chars[i]);
                    i += 1;
                }
            }
            continue;
        }
        // Identifiers are consumed whole so a trailing `r`/`b`/`br` can be
        // recognized as a literal prefix rather than the tail of some
        // longer name (`four"…"` is not a raw string).
        if c.is_ascii_alphabetic() || c == '_' {
            let start = i;
            while i < n && (chars[i].is_ascii_alphanumeric() || chars[i] == '_') {
                i += 1;
            }
            let ident: String = chars[start..i].iter().collect();
            let prefix = matches!(ident.as_str(), "r" | "b" | "br");
            if prefix && chars.get(i).is_some_and(|&c| c == '"' || c == '#') {
                // Raw / byte string: count the hashes, then scan for the
                // matching `"##…` terminator. `b"…"` has zero hashes and no
                // raw semantics, but its body is blanked the same way —
                // escapes only matter for finding the closing quote, which
                // the non-raw branch below handles; byte strings reuse it.
                out.push_str(&ident);
                if ident == "b" && chars.get(i) == Some(&'"') {
                    i = blank_plain_string(&chars, i, &mut out);
                    continue;
                }
                let mut hashes = 0usize;
                while chars.get(i) == Some(&'#') {
                    out.push('#');
                    hashes += 1;
                    i += 1;
                }
                if chars.get(i) != Some(&'"') {
                    continue; // `r#ident` raw identifier, not a string
                }
                out.push('"');
                i += 1;
                while i < n {
                    if chars[i] == '"'
                        && chars[i + 1..]
                            .iter()
                            .take(hashes)
                            .filter(|&&h| h == '#')
                            .count()
                            == hashes
                    {
                        out.push('"');
                        for _ in 0..hashes {
                            out.push('#');
                        }
                        i += 1 + hashes;
                        break;
                    }
                    blank(&mut out, chars[i]);
                    i += 1;
                }
            } else {
                out.push_str(&ident);
            }
            continue;
        }
        // Plain string literal.
        if c == '"' {
            i = blank_plain_string(&chars, i, &mut out);
            continue;
        }
        // Char literal vs lifetime/loop label.
        if c == '\'' {
            if chars.get(i + 1) == Some(&'\\') {
                // Escaped char literal: `'\n'`, `'\''`, `'\u{7f}'`, …
                out.push('\'');
                i += 1;
                while i < n && chars[i] != '\'' {
                    if chars[i] == '\\' && i + 1 < n {
                        out.push_str("  ");
                        i += 2;
                    } else {
                        blank(&mut out, chars[i]);
                        i += 1;
                    }
                }
                if i < n {
                    out.push('\'');
                    i += 1;
                }
            } else if chars.get(i + 2) == Some(&'\'') {
                // Simple char literal `'x'` — including `'"'`, which is why
                // this case is checked before anything quote-related.
                out.push_str("' '");
                i += 3;
            } else {
                // Lifetime or loop label: plain code.
                out.push('\'');
                i += 1;
            }
            continue;
        }
        out.push(c);
        i += 1;
    }
    out
}

/// Blanks one `"…"` literal starting at `chars[i] == '"'`, honoring
/// backslash escapes; returns the index one past the closing quote.
fn blank_plain_string(chars: &[char], mut i: usize, out: &mut String) -> usize {
    out.push('"');
    i += 1;
    while i < chars.len() {
        match chars[i] {
            '\\' if i + 1 < chars.len() => {
                out.push(' ');
                // Keep escaped newlines (line continuations) as newlines so
                // line alignment survives.
                out.push(if chars[i + 1] == '\n' { '\n' } else { ' ' });
                i += 2;
            }
            '"' => {
                out.push('"');
                return i + 1;
            }
            c => {
                out.push(if c == '\n' { '\n' } else { ' ' });
                i += 1;
            }
        }
    }
    i
}

/// Detects `== <float literal>` / `!= <float literal>` (either side).
fn float_literal_cmp(code: &str) -> bool {
    for op in ["==", "!="] {
        let mut start = 0;
        while let Some(pos) = code[start..].find(op) {
            let at = start + pos;
            // Skip `<=`, `>=`, `!=` matched inside `==` scans and pattern
            // guards like `=>`.
            let before = &code[..at];
            let after = &code[at + 2..];
            if op == "==" && before.ends_with(['<', '>', '!', '=']) {
                start = at + 2;
                continue;
            }
            if is_float_token(last_token(before)) || is_float_token(first_token(after)) {
                return true;
            }
            start = at + 2;
        }
    }
    false
}

fn last_token(s: &str) -> &str {
    let trimmed = s.trim_end();
    let cut = trimmed
        .rfind(|c: char| !(c.is_ascii_alphanumeric() || c == '.' || c == '_' || c == '-'))
        .map_or(0, |p| p + 1);
    &trimmed[cut..]
}

fn first_token(s: &str) -> &str {
    let trimmed = s.trim_start();
    let cut = trimmed
        .find(|c: char| !(c.is_ascii_alphanumeric() || c == '.' || c == '_' || c == '-'))
        .unwrap_or(trimmed.len());
    &trimmed[..cut]
}

/// A token "looks like a float literal" when it parses as one and is not
/// an integer literal or an identifier/path segment.
fn is_float_token(tok: &str) -> bool {
    let tok = tok.strip_prefix('-').unwrap_or(tok);
    if tok.is_empty() || !tok.starts_with(|c: char| c.is_ascii_digit()) {
        return false;
    }
    let tok = tok
        .strip_suffix("f64")
        .or_else(|| tok.strip_suffix("f32"))
        .unwrap_or(tok);
    let tok = tok.strip_suffix('_').unwrap_or(tok);
    (tok.contains('.') || tok.contains(['e', 'E'])) && tok.parse::<f64>().is_ok()
}

/// Flags a `pub fn` with no doc comment or doc attribute above it. The
/// declaration is matched on the blanked `code` line (so the phrase inside
/// a string can't fire), but the doc search walks the *raw* lines — doc
/// comments are exactly what the lexer blanks out.
fn missing_doc_violation(label: &str, lines: &[&str], i: usize, code: &str) -> Option<Violation> {
    let trimmed = code.trim_start();
    let is_pub_fn = trimmed.starts_with("pub fn ")
        || trimmed.starts_with("pub const fn ")
        || trimmed.starts_with("pub unsafe fn ");
    if !is_pub_fn {
        return None;
    }
    // Walk upward over attributes and blank lines looking for docs.
    let mut j = i;
    while j > 0 {
        j -= 1;
        let above = lines[j].trim_start();
        if above.starts_with("///") || above.starts_with("#[doc") || above.starts_with("#![doc") {
            return None;
        }
        if above.starts_with("#[") || above.starts_with("#![") || above.is_empty() {
            continue;
        }
        break;
    }
    Some(Violation {
        file: label.to_string(),
        line: i + 1,
        rule: "doc-pub-fn",
        text: lines[i].to_string(),
    })
}

/// Dependency names allowed anywhere in the workspace.
const DEP_ALLOWLIST: &[&str] = &[
    "pilut-sparse",
    "pilut-graph",
    "pilut-par",
    "pilut-core",
    "pilut-solver",
    "pilut-allocaudit",
];

/// Manifest rule: every dependency name in any `[…dependencies…]` table
/// must be on the allowlist (`criterion` additionally allowed in the
/// workspace-excluded bench crate).
fn lint_manifest(label: &str, content: &str, is_bench: bool) -> Vec<Violation> {
    let mut out = Vec::new();
    let mut in_dep_table = false;
    for (i, raw) in content.lines().enumerate() {
        let line = raw.trim();
        if line.starts_with('[') {
            // `[dependencies]`, `[dev-dependencies]`, `[workspace.dependencies]`,
            // `[target.'…'.dependencies]`, … — anything ending in `dependencies]`.
            in_dep_table = line.trim_end_matches(']').ends_with("dependencies");
            continue;
        }
        if !in_dep_table || line.is_empty() || line.starts_with('#') {
            continue;
        }
        let name = line
            .split(['=', '.', ' ', '\t'])
            .next()
            .unwrap_or("")
            .trim_matches('"');
        if name.is_empty() {
            continue;
        }
        let allowed = DEP_ALLOWLIST.contains(&name) || (is_bench && name == "criterion");
        if !allowed {
            out.push(Violation {
                file: label.to_string(),
                line: i + 1,
                rule: "dep-allowlist",
                text: raw.to_string(),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rules(vs: &[Violation]) -> Vec<&'static str> {
        vs.iter().map(|v| v.rule).collect()
    }

    #[test]
    fn workspace_is_clean() {
        let violations = run_lint(&workspace_root());
        assert!(
            violations.is_empty(),
            "xtask lint found {} violation(s):\n{}",
            violations.len(),
            violations
                .iter()
                .map(|v| format!("  {v}\n"))
                .collect::<String>()
        );
    }

    #[test]
    fn planted_unwrap_is_caught() {
        let src = "fn f() {\n    let x = g().unwrap();\n    let y = h().expect(\"h\");\n}\n";
        assert_eq!(
            rules(&lint_source("crates/fake/src/a.rs", src, false)),
            vec!["no-unwrap"; 2]
        );
    }

    #[test]
    fn allow_marker_suppresses_unwrap() {
        let same = "fn f() { g().unwrap(); } // lint: allow(unwrap): infallible\n";
        assert!(lint_source("crates/fake/src/a.rs", same, false).is_empty());
        let above = "// lint: allow(unwrap): infallible\nfn f() { g().unwrap(); }\n";
        assert!(lint_source("crates/fake/src/a.rs", above, false).is_empty());
    }

    #[test]
    fn test_module_tail_is_exempt() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g() { h().unwrap(); }\n}\n";
        assert!(lint_source("crates/fake/src/a.rs", src, false).is_empty());
    }

    #[test]
    fn planted_float_eq_is_caught() {
        let bad = "fn f(x: f64) -> bool { x == 0.0 }\n";
        assert_eq!(
            rules(&lint_source("crates/fake/src/a.rs", bad, false)),
            vec!["no-float-eq"]
        );
        let bad2 = "fn f(x: f64) -> bool { 1e-6 != x }\n";
        assert_eq!(
            rules(&lint_source("crates/fake/src/a.rs", bad2, false)),
            vec!["no-float-eq"]
        );
    }

    #[test]
    fn integer_and_ge_comparisons_are_fine() {
        for ok in [
            "fn f(x: usize) -> bool { x == 0 }\n",
            "fn f(x: f64) -> bool { x <= 0.5 }\n",
            "fn f(x: f64) -> bool { x >= 0.5 }\n",
        ] {
            assert!(
                lint_source("crates/fake/src/a.rs", ok, false).is_empty(),
                "{ok}"
            );
        }
    }

    #[test]
    fn thread_use_confined_to_par() {
        let src = "fn f() { std::thread::spawn(|| {}); }\n";
        assert_eq!(
            rules(&lint_source("crates/fake/src/a.rs", src, false)),
            vec!["par-confinement"]
        );
        assert!(lint_source("crates/par/src/a.rs", src, true).is_empty());
    }

    #[test]
    fn string_and_comment_content_does_not_fire() {
        let src = "fn f() { let s = \".unwrap() == 0.0 mpsc\"; } // .unwrap() std::thread\n";
        assert!(lint_source("crates/fake/src/a.rs", src, false).is_empty());
    }

    #[test]
    fn raw_comm_confined_to_par_and_exchange() {
        let src =
            "fn f(ctx: &mut Ctx) { ctx.send(1, tags::SPMV, p); let _ = ctx.recv(0, tags::SPMV); }\n";
        assert_eq!(
            rules(&lint_source("crates/core/src/dist/spmv.rs", src, false)),
            vec!["no-raw-comm"; 1]
        );
        assert!(lint_source("crates/par/src/ctx.rs", src, true).is_empty());
        assert!(lint_source("crates/core/src/dist/exchange.rs", src, false).is_empty());
        let allowed = "// lint: allow(raw-comm): bootstrap handshake\nfn f(ctx: &mut Ctx) { ctx.send(1, tags::SPMV, p); }\n";
        assert!(lint_source("crates/core/src/a.rs", allowed, false).is_empty());
    }

    #[test]
    fn untagged_send_is_caught_outside_par() {
        // A literal tag defeats the namespace discipline even where raw
        // comm itself is legal — and the scan crosses line breaks.
        let bad = "fn f(ctx: &mut Ctx) {\n    ctx.send(peer,\n        7,\n        p);\n}\n";
        let got = lint_source("crates/core/src/dist/exchange.rs", bad, false);
        assert_eq!(rules(&got), vec!["no-untagged-send"]);
        assert_eq!(got[0].line, 2, "reported at the call line");
        // `send_as` checks the stats tag too, not just the wire tag.
        let bad_as = "fn f(ctx: &mut Ctx) { ctx.send_as(peer, wire, 42, p); }\n";
        assert_eq!(
            rules(&lint_source(
                "crates/core/src/dist/exchange.rs",
                bad_as,
                false
            )),
            vec!["no-untagged-send"]
        );
        // Named constants and tags derived from them pass; nested calls in
        // earlier arguments don't shift the argument count.
        let good = "fn f(ctx: &mut Ctx) {\n    ctx.send(peer, tags::SPMV, p);\n    ctx.send_as(dest(q, 1), base + round, tags::FWD, p);\n}\n";
        assert!(lint_source("crates/core/src/dist/exchange.rs", good, false).is_empty());
        // The VM crate is exempt; the marker and the test tail opt out.
        assert!(lint_source("crates/par/src/a.rs", bad, true).is_empty());
        let marked = "// lint: allow(untagged-send): loopback probe\nfn f(ctx: &mut Ctx) { ctx.send(peer, 7, p); }\n";
        assert!(lint_source("crates/core/src/dist/exchange.rs", marked, false).is_empty());
        let tail = "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g(ctx: &mut Ctx) { ctx.send(0, 9, p); }\n}\n";
        assert!(lint_source("crates/core/src/dist/exchange.rs", tail, false).is_empty());
    }

    #[test]
    fn alloc_in_hot_catches_every_construct() {
        // Whole-file hot module: each construct fires as its own violation,
        // and macro invocations are matched as tokens — `vec![` and
        // `format!` are first-class, `avec![` is some other macro.
        let hot = "crates/sparse/src/tile.rs";
        let bad = "fn k() {\n    let a = Vec::new();\n    let b = vec![0.0; 4];\n    let c = Vec::with_capacity(8);\n    let d = xs.iter().collect();\n    let e = xs.to_vec();\n    let f = xs.clone();\n    let g = Box::new(0);\n    let h = format!(\"x\");\n    let i = String::new();\n}\n";
        assert_eq!(
            rules(&lint_source(hot, bad, false)),
            vec!["no-alloc-in-hot"; 9]
        );
        // A cold file with the same body is untouched.
        assert!(lint_source("crates/fake/src/a.rs", bad, false).is_empty());
    }

    #[test]
    fn alloc_in_hot_macro_tokens_do_not_false_positive() {
        let hot = "crates/sparse/src/tile.rs";
        for ok in [
            // `vec!` inside a string or comment is blanked before the walk.
            "fn k() { let s = \"vec![0; 4]\"; } // vec![format!]\n",
            // Some other macro ending in `vec`, and `Clone` in a bound.
            "fn k<T: Clone>() { avec![1]; assert_ne!(a, b); }\n",
            // `cloned()` / `collected` are different identifiers.
            "fn k() { xs.iter().cloned().sum::<f64>(); let collected = 0; }\n",
            // A field access named `clone` without a call doesn't fire.
            "fn k() { let c = self.clone_count; }\n",
        ] {
            assert!(lint_source(hot, ok, false).is_empty(), "{ok}");
        }
    }

    #[test]
    fn alloc_in_hot_respects_function_lists() {
        // factors.rs polices only the solve functions: a constructor may
        // allocate, the hot sweep may not.
        let label = "crates/core/src/factors.rs";
        let src = "impl F {\n    /// Constructor — free to allocate.\n    pub fn from_pairs() -> Self {\n        let v: Vec<f64> = it.collect();\n        Self { v }\n    }\n}\n/// Hot sweep — policed.\nfn sweep<const B: usize>(f: &F, x: &mut [f64]) {\n    let tmp = x.to_vec();\n}\n";
        let got = lint_source(label, src, false);
        assert_eq!(rules(&got), vec!["no-alloc-in-hot"]);
        assert_eq!(got[0].line, 10, "only the line inside the hot fn");
    }

    #[test]
    fn stale_hot_module_entries_fail_loudly() {
        let src = "fn sweep() {}\npub fn solve_into() {}\n#[cfg(test)]\nmod tests {\n    fn gone() {}\n}\n";
        let read = |label: &str| (label == "crates/a.rs").then(|| src.to_string());
        let live: &[(&str, &[&str])] = &[("crates/a.rs", &["sweep", "solve_into", "*"])];
        assert!(stale_hot_module_violations(live, read).is_empty());
        // A missing file, a renamed function, and one that only the test
        // tail declares each lose coverage — each is a violation.
        let stale: &[(&str, &[&str])] = &[
            ("crates/deleted.rs", &["*"]),
            ("crates/a.rs", &["forward_solve", "gone"]),
        ];
        let got = stale_hot_module_violations(stale, read);
        assert_eq!(rules(&got), vec!["no-alloc-in-hot"; 3]);
        assert!(got[0].text.contains("does not exist"), "{}", got[0]);
        assert!(got[1].text.contains("`forward_solve`"), "{}", got[1]);
        assert!(got[2].text.contains("`gone`"), "{}", got[2]);
    }

    #[test]
    fn alloc_in_hot_escape_and_test_tail() {
        let hot = "crates/core/src/dist/exchange/replay.rs";
        let marked = "fn k() {\n    // lint: allow(alloc-in-hot): first-round warm-up only\n    let v = Vec::with_capacity(4);\n}\n";
        assert!(lint_source(hot, marked, false).is_empty());
        let tail = "fn k() {}\n#[cfg(test)]\nmod tests {\n    fn t() { let v = vec![1]; }\n}\n";
        assert!(lint_source(hot, tail, false).is_empty());
    }

    #[test]
    fn alloc_in_hot_sees_multi_line_calls() {
        // The allocating token is flagged on its own line even when the
        // call spans lines — the walk is per physical line of blanked code.
        let hot = "crates/sparse/src/tile.rs";
        let src = "fn k() {\n    let v: Vec<f64> = xs\n        .iter()\n        .map(|x| x * 2.0)\n        .collect();\n}\n";
        let got = lint_source(hot, src, false);
        assert_eq!(rules(&got), vec!["no-alloc-in-hot"]);
        assert_eq!(got[0].line, 5, "reported at the `.collect()` line");
    }

    #[test]
    fn lexer_blanks_block_comments_and_raw_strings() {
        // Every construct the old per-line stripper could not see.
        let src = "fn f() {\n    /* x.unwrap()\n       still comment */\n    let s = r#\"g().unwrap() == 0.0\"#;\n    let b = b\".expect(\";\n}\n";
        assert!(lint_source("crates/fake/src/a.rs", src, false).is_empty());
        // Nested block comments stay blanked to the outermost close.
        let nested = "fn f() {\n    /* a /* b.unwrap() */ c.unwrap() */\n}\n";
        assert!(lint_source("crates/fake/src/a.rs", nested, false).is_empty());
    }

    #[test]
    fn lexer_handles_char_literals_and_lifetimes() {
        // `'"'` must not open a string; lifetimes must not open a char
        // literal that swallows the rest of the file.
        let src = "fn f<'a>(x: &'a str) -> bool {\n    let q = '\"';\n    let e = '\\'';\n    x.contains(q) && g().unwrap()\n}\n";
        assert_eq!(
            rules(&lint_source("crates/fake/src/a.rs", src, false)),
            vec!["no-unwrap"]
        );
    }

    #[test]
    fn lexer_preserves_line_numbers() {
        let src = "line one\n\"string\nspanning\nlines\"\nlet x = 1;\n";
        let blanked = blank_noncode(src);
        assert_eq!(src.lines().count(), blanked.lines().count());
        assert_eq!(blanked.lines().last(), Some("let x = 1;"));
    }

    #[test]
    fn cfg_test_inside_a_string_does_not_start_the_test_tail() {
        let src = "fn f() { let s = \"#[cfg(test)]\"; }\nfn g() { h().unwrap(); }\n";
        assert_eq!(
            rules(&lint_source("crates/fake/src/a.rs", src, false)),
            vec!["no-unwrap"]
        );
    }

    #[test]
    fn reserved_tag_construction_is_caught_outside_par() {
        let bad = "fn f() { let t = Ctx::RESERVED_TAG_BASE | 3; }\n";
        assert_eq!(
            rules(&lint_source("crates/core/src/a.rs", bad, false)),
            vec!["no-reserved-tag"]
        );
        let bad2 = "fn f() { let t = 7 + pilut_par::Ctx::RESERVED_TAG_BASE; }\n";
        assert_eq!(
            rules(&lint_source("crates/solver/src/a.rs", bad2, false)),
            vec!["no-reserved-tag"]
        );
        // crates/par implements the namespace and may build tags in it.
        assert!(lint_source("crates/par/src/ctx.rs", bad, true).is_empty());
        // Classifying a tag by comparison is how user code is meant to use
        // the constant.
        let cmp = "fn f(t: u64) -> bool { t >= Ctx::RESERVED_TAG_BASE }\n";
        assert!(lint_source("crates/core/src/a.rs", cmp, false).is_empty());
        let marked = "// lint: allow(reserved-tag): test rig builds a protocol tag\nfn f() { let t = Ctx::RESERVED_TAG_BASE | 1; }\n";
        assert!(lint_source("crates/core/src/a.rs", marked, false).is_empty());
    }

    #[test]
    fn storage_poke_confined_to_sparse() {
        let bad = "fn f(a: &CsrMatrix) { let p = a.row_ptr(); let c = a.col_idx(); }\n";
        assert_eq!(
            rules(&lint_source("crates/core/src/a.rs", bad, false)),
            vec!["no-storage-poke"]
        );
        let bad_bcsr = "fn f(a: &BcsrMatrix) { let t = a.tile_values(); }\n";
        assert_eq!(
            rules(&lint_source("crates/solver/src/a.rs", bad_bcsr, false)),
            vec!["no-storage-poke"]
        );
        // The sparse crate implements the storage and may touch its arrays.
        assert!(lint_source("crates/sparse/src/bcsr.rs", bad, false).is_empty());
        // HashMap iteration does not pattern-match the rule.
        let map = "fn f(m: &mut HashMap<usize, Vec<u8>>) { for v in m.values_mut() {} }\n";
        assert!(lint_source("crates/core/src/a.rs", map, false).is_empty());
        // Escape hatch and test tail opt out as usual.
        let marked =
            "// lint: allow(storage-poke): zero-copy serialization needs the arrays\nfn f(a: &CsrMatrix) { let p = a.row_ptr(); }\n";
        assert!(lint_source("crates/core/src/a.rs", marked, false).is_empty());
        let tail =
            "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g(a: &CsrMatrix) { a.row_ptr(); }\n}\n";
        assert!(lint_source("crates/core/src/a.rs", tail, false).is_empty());
    }

    #[test]
    fn undocumented_pub_fn_is_caught() {
        let bad = "impl A {\n    pub fn f() {}\n}\n";
        assert_eq!(
            rules(&lint_source("crates/fake/src/a.rs", bad, false)),
            vec!["doc-pub-fn"]
        );
        let good = "impl A {\n    /// Does f.\n    #[inline]\n    pub fn f() {}\n}\n";
        assert!(lint_source("crates/fake/src/a.rs", good, false).is_empty());
        // The doc rule is scoped to crates/*/src.
        assert!(lint_source("src/lib.rs", bad, false).is_empty());
    }

    #[test]
    fn rogue_dependency_is_caught() {
        let bad = "[package]\nname = \"x\"\n[dependencies]\nserde = \"1\"\n";
        assert_eq!(
            rules(&lint_manifest("crates/fake/Cargo.toml", bad, false)),
            vec!["dep-allowlist"]
        );
    }

    #[test]
    fn path_deps_and_bench_criterion_are_fine() {
        let ok =
            "[dependencies]\npilut-sparse = { workspace = true }\npilut-par.workspace = true\n";
        assert!(lint_manifest("crates/fake/Cargo.toml", ok, false).is_empty());
        let bench = "[dev-dependencies]\ncriterion = \"0.5\"\n";
        assert!(lint_manifest("crates/bench/Cargo.toml", bench, true).is_empty());
        assert_eq!(
            rules(&lint_manifest("crates/fake/Cargo.toml", bench, false)),
            vec!["dep-allowlist"]
        );
    }
}
