//! The one bench harness: everything the workloads share and nothing
//! they measure.
//!
//! Six things live here and nowhere else in the crate:
//!
//! * **the runner** — `Experiment`: build a system (arming a fault
//!   plan or not), spawn named processes in order, run to quiescence,
//!   hand back what each process returned;
//! * **the row table** — `Row`: a report row declared once as a list
//!   of `Field`s, from which its digest feed, its JSON object and its
//!   text line are all read;
//! * **the digest** — `committed_digest`, which reads a committed
//!   `*_digest` field (a `shrimp_sim::Fnv1a`) back out of a
//!   `BENCH_*.json`;
//! * **the JSON form** — `Json` / `Obj`, a writer for the committed
//!   shape (top-level keys one per line, a `comment` array, rows as
//!   one-line objects whose numbers the caller formats);
//! * **the CLI** — [`Flag`] / [`Args`], one strict parser: an unknown
//!   flag, a missing value or an unparsable number is a usage error,
//!   never a silent default;
//! * **the finish step** — a workload returns an [`Outcome`] and
//!   [`main`] writes, prints and gates it: every named digest against
//!   the `--check` file, every extra check on every run.
//!
//! Exit codes: 0 pass, 1 a digest or check failed, 2 usage error.

use std::fmt::{Display, Write as _};
use std::process::ExitCode;
use std::sync::Arc;

use parking_lot::Mutex;
use shrimp_core::{ShrimpSystem, SystemConfig};
use shrimp_sim::{Ctx, FaultPlan, Fnv1a, Kernel, SimTime};

use crate::report::us;

/// One experiment: a fresh kernel, the system built on it, the processes
/// spawned into it, and the run to quiescence. The one place in the
/// crate a [`ShrimpSystem`] is built and run.
pub(crate) struct Experiment {
    /// The machine under test.
    pub(crate) system: Arc<ShrimpSystem>,
    kernel: Kernel,
}

/// Where a process spawned by [`Experiment::spawn`] leaves what it
/// returned.
pub(crate) struct Slot<T>(Arc<Mutex<Option<T>>>);

impl<T> Slot<T> {
    /// What the process returned.
    ///
    /// # Panics
    ///
    /// If the run ended with the process still parked.
    pub(crate) fn take(&self) -> T {
        self.0.lock().take().expect("the process ran to its end")
    }
}

impl Experiment {
    /// Build the system `config` describes; `faults` arms a plan on it
    /// (an empty one still switches the OS repair path on).
    pub(crate) fn new(config: SystemConfig, faults: Option<&FaultPlan>) -> Experiment {
        let kernel = Kernel::new();
        let system = ShrimpSystem::build(&kernel, config);
        if let Some(plan) = faults {
            system.apply_faults(plan);
        }
        Experiment { system, kernel }
    }

    /// Spawn `body` as the process `name`. Spawn order is the kernel's
    /// tie-break, and names appear in traces: both are part of every
    /// committed virtual number.
    pub(crate) fn spawn<T: Send + 'static>(
        &self,
        name: impl Into<String>,
        body: impl FnOnce(&Ctx) -> T + Send + 'static,
    ) -> Slot<T> {
        let slot = Arc::new(Mutex::new(None));
        let out = Arc::clone(&slot);
        self.kernel.spawn(name, move |ctx| {
            let returned = body(ctx);
            *out.lock() = Some(returned);
        });
        Slot(slot)
    }

    /// Run to quiescence.
    ///
    /// # Panics
    ///
    /// With `what` if a process panicked, or if a run with no fault plan
    /// armed saw a protection violation.
    pub(crate) fn run(&self, what: &str) {
        if let Err(e) = self.kernel.run_until_quiescent() {
            panic!("{what} failed: {e:?}");
        }
        assert!(
            self.system.fault_log().is_some() || self.system.violations().is_empty(),
            "protection violations during {what}"
        );
    }

    /// The timestamped entries of the armed plan's fault log (none for
    /// an unfaulted run), for overlaying on a trace.
    pub(crate) fn fault_events(&self) -> Vec<(SimTime, String)> {
        let log = self.system.fault_log();
        log.map_or_else(Vec::new, |log| log.snapshot())
    }
}

/// Extract a `"<field>": "<16 hex>"` digest from a committed
/// `BENCH_*.json`. Minimal scan, no JSON dependency.
pub(crate) fn committed_digest(json: &str, field: &str) -> Option<u64> {
    let at = json.find(&format!("\"{field}\""))?;
    let tail = &json[at..];
    let q1 = tail.find(": \"")? + 3;
    let hex = tail.get(q1..q1 + 16)?;
    u64::from_str_radix(hex, 16).ok()
}

/// A one-line JSON object under construction. Keys keep insertion
/// order; the caller picks each number's decimals.
#[derive(Debug, Default)]
pub(crate) struct Obj(String);

impl Obj {
    /// An empty object.
    pub(crate) fn new() -> Obj {
        Obj::default()
    }

    /// A value written as given: an integer, a nested [`Obj`].
    pub(crate) fn raw(mut self, key: &str, value: impl Display) -> Obj {
        let sep = if self.0.is_empty() { "" } else { ", " };
        write!(self.0, "{sep}\"{key}\": {value}").expect("writing to a String");
        self
    }

    /// A float with a fixed number of decimals.
    pub(crate) fn num(self, key: &str, value: f64, decimals: usize) -> Obj {
        self.raw(key, format_args!("{value:.decimals$}"))
    }

    /// A quoted string (the committed files need no escaping).
    pub(crate) fn str(self, key: &str, value: &str) -> Obj {
        self.raw(key, format_args!("\"{value}\""))
    }

    /// A digest: 16 quoted hex digits, what [`committed_digest`] reads.
    pub(crate) fn hex(self, key: &str, value: u64) -> Obj {
        self.raw(key, format_args!("\"{value:016x}\""))
    }
}

impl Display for Obj {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{{{}}}", self.0)
    }
}

/// A committed `BENCH_*.json` under construction: top-level entries
/// one per line, opened by the `comment` array.
#[derive(Debug)]
pub(crate) struct Json(Vec<String>);

impl Json {
    /// Start a document with its `comment` lines.
    pub(crate) fn new(comment: &[&str]) -> Json {
        let mut json = Json(Vec::new());
        json.block("comment", "[]", comment.iter().map(|l| format!("\"{l}\"")));
        json
    }

    /// A one-line entry: a number, a one-line [`Obj`].
    pub(crate) fn put(&mut self, key: &str, value: impl Display) {
        self.0.push(format!("  \"{key}\": {value}"));
    }

    /// A digest entry.
    pub(crate) fn hex(&mut self, key: &str, value: u64) {
        self.put(key, format_args!("\"{value:016x}\""));
    }

    /// A multi-line entry, one item per line between `brackets`.
    pub(crate) fn block(
        &mut self,
        key: &str,
        brackets: &str,
        items: impl Iterator<Item = impl Display>,
    ) {
        let items: Vec<String> = items.map(|i| format!("    {i}")).collect();
        let (open, close) = brackets.split_at(1);
        self.put(
            key,
            format_args!("{open}\n{}\n  {close}", items.join(",\n")),
        );
    }

    /// An array of one-line objects, one per line.
    pub(crate) fn rows(&mut self, key: &str, rows: impl Iterator<Item = Obj>) {
        self.block(key, "[]", rows);
    }

    /// The finished document.
    pub(crate) fn finish(self) -> String {
        format!("{{\n{}\n}}\n", self.0.join(",\n"))
    }
}

/// The paper's measurement, inside a process: `warmup` untimed calls of
/// `round` (which is told its index), then `rounds` timed ones. Returns
/// the microseconds the timed ones took.
pub(crate) fn time_rounds(ctx: &Ctx, warmup: u32, rounds: u32, mut round: impl FnMut(u32)) -> f64 {
    (0..warmup).for_each(&mut round);
    let t0 = ctx.now();
    (warmup..warmup + rounds).for_each(&mut round);
    (ctx.now() - t0).as_us()
}

/// One value of a report row, by how it is shown.
#[derive(Debug, Clone)]
pub(crate) enum Cell {
    /// A count, shown as is.
    Count(u64),
    /// A latency in picoseconds, shown in µs to two decimals.
    Ps(u64),
    /// A float, shown to the given number of decimals.
    Real(f64, usize),
    /// A ratio, shown to two decimals (`1.50x` in text).
    Times(f64),
    /// A label; the digest takes its bytes.
    Text(String),
    /// A digest, shown as 16 hex digits.
    Digest(u64),
}

impl Cell {
    /// The value as the text report shows it.
    fn text(&self) -> String {
        match self {
            Cell::Count(v) => v.to_string(),
            Cell::Ps(v) => format!("{:.2}", us(*v)),
            Cell::Real(v, decimals) => format!("{v:.decimals$}"),
            Cell::Times(v) => format!("{v:.2}x"),
            Cell::Text(v) => v.clone(),
            Cell::Digest(v) => format!("{v:016x}"),
        }
    }
}

/// Which of a row's readers see a field.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Scope {
    Everywhere,
    /// In the digest; in neither the JSON nor the text.
    DigestOnly,
    /// In the JSON and the text; not in the digest.
    ShownOnly,
}

/// One field of a report row: its JSON key, its value, who reads it,
/// and its text column as `(header, width)`.
#[derive(Debug, Clone)]
pub(crate) struct Field {
    name: &'static str,
    cell: Cell,
    scope: Scope,
    column: Option<(&'static str, usize)>,
}

/// A field every reader sees, with no text column.
pub(crate) fn field(name: &'static str, cell: Cell) -> Field {
    Field {
        name,
        cell,
        scope: Scope::Everywhere,
        column: None,
    }
}

impl Field {
    /// Give the field a column in the text table.
    pub(crate) fn col(mut self, header: &'static str, width: usize) -> Field {
        self.column = Some((header, width));
        self
    }

    /// Keep the field out of the JSON and the text.
    pub(crate) fn digest_only(mut self) -> Field {
        self.scope = Scope::DigestOnly;
        self
    }

    /// Keep the field out of the digest.
    pub(crate) fn shown_only(mut self) -> Field {
        self.scope = Scope::ShownOnly;
        self
    }
}

/// A report row, declared once: its fields in digest order. The digest
/// feed, the JSON object and the text line are all read off this list,
/// so a field cannot be in one and missing from another.
#[derive(Debug, Clone)]
pub(crate) struct Row(pub(crate) Vec<Field>);

impl Row {
    /// Feed every field but the shown-only ones, in order.
    pub(crate) fn feed(&self, h: &mut Fnv1a) {
        for f in self.0.iter().filter(|f| f.scope != Scope::ShownOnly) {
            match &f.cell {
                Cell::Count(v) | Cell::Ps(v) | Cell::Digest(v) => h.u64(*v),
                Cell::Real(v, _) | Cell::Times(v) => h.f64(*v),
                Cell::Text(v) => h.bytes(v.as_bytes()),
            };
        }
    }

    /// The row as a JSON object: every field but the digest-only ones,
    /// values in declaration order, then the digests — they close a row
    /// as they close the file.
    pub(crate) fn json(&self) -> Obj {
        let (digests, values): (Vec<_>, Vec<_>) = self
            .shown()
            .partition(|f| matches!(f.cell, Cell::Digest(_)));
        let cells = values.into_iter().chain(digests);
        cells.fold(Obj::new(), |obj, f| match &f.cell {
            Cell::Times(v) => obj.num(f.name, *v, 2),
            Cell::Text(v) => obj.str(f.name, v),
            Cell::Digest(v) => obj.hex(f.name, *v),
            cell => obj.raw(f.name, cell.text()),
        })
    }

    fn shown(&self) -> impl Iterator<Item = &Field> {
        self.0.iter().filter(|f| f.scope != Scope::DigestOnly)
    }

    /// The row's line in a text table, each field with a column right-
    /// aligned in it; `header` renders the column headers instead.
    pub(crate) fn table_line(&self, header: bool) -> String {
        let columns = self.shown().filter_map(|f| Some((f, f.column?)));
        let cell = |(f, (head, width)): (&Field, (&str, usize))| match header {
            true => format!("{head:>width$}"),
            false => format!("{:>width$}", f.cell.text()),
        };
        columns.map(cell).collect::<Vec<_>>().join(" ") + "\n"
    }

    /// A text table: the first row's column headers, then every row's
    /// line.
    pub(crate) fn table(rows: impl Iterator<Item = Row>) -> String {
        let mut out = String::new();
        for (i, row) in rows.enumerate() {
            if i == 0 {
                out.push_str(&row.table_line(true));
            }
            out.push_str(&row.table_line(false));
        }
        out
    }

    /// Every number the row shows, as `name=value` pairs on one line.
    pub(crate) fn pairs(&self) -> String {
        let numbers = self
            .shown()
            .filter(|f| !matches!(f.cell, Cell::Text(_) | Cell::Digest(_)));
        let pair = |f: &Field| format!("{}={}", f.name, f.cell.text());
        numbers.map(pair).collect::<Vec<_>>().join(" ")
    }
}

/// What a flag takes after its name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Nothing: present or absent.
    Switch,
    /// Any string (a path), shown in usage as the metavar.
    Text(&'static str),
    /// One of a closed set of names.
    Choice(&'static [&'static str]),
    /// An unsigned integer.
    Int,
    /// A float.
    Real,
}

/// One declared command-line flag. A name without leading dashes is a
/// required positional argument.
#[derive(Debug, Clone, Copy)]
pub struct Flag {
    /// The flag as typed (`--seed`), or the positional's metavar.
    pub name: &'static str,
    /// What follows it.
    pub kind: Kind,
    /// One usage line.
    pub help: &'static str,
}

impl Flag {
    /// Declare a flag.
    pub const fn new(name: &'static str, kind: Kind, help: &'static str) -> Flag {
        Flag { name, kind, help }
    }

    fn positional(&self) -> bool {
        !self.name.starts_with('-')
    }
}

/// `--smoke`: the CI-sized configuration of a workload that has one.
pub(crate) const SMOKE: Flag = Flag::new("--smoke", Kind::Switch, "run the CI-sized configuration");
/// `--write-text PATH`: accepted by every workload.
const WRITE_TEXT: Flag = Flag::new(
    "--write-text",
    Kind::Text("PATH"),
    "write the report, print nothing",
);
/// `--write-json PATH`: the committed `BENCH_*.json` content.
pub(crate) const WRITE_JSON: Flag = Flag::new(
    "--write-json",
    Kind::Text("PATH"),
    "write the BENCH_*.json content",
);
/// `--check FILE`: the digest gate.
pub(crate) const CHECK: Flag = Flag::new(
    "--check",
    Kind::Text("FILE"),
    "exit 1 unless every digest matches FILE",
);
/// The flags of a ledger workload (one with a committed `BENCH_*.json`).
pub const LEDGER: &[Flag] = &[SMOKE, WRITE_JSON, CHECK];

/// Parsed, validated arguments: every entry matched a declared
/// [`Flag`] and every number parsed.
#[derive(Debug, Default)]
pub struct Args(Vec<(&'static str, String)>);

impl Args {
    /// Parse `argv` strictly against `flags`.
    ///
    /// # Errors
    ///
    /// The usage message for an unknown or repeated flag, a flag
    /// missing its value, an unparsable number, a stray argument, or a
    /// missing positional.
    pub fn parse(flags: &[Flag], argv: &[String]) -> Result<Args, String> {
        let mut args = Args::default();
        let mut it = argv.iter();
        while let Some(token) = it.next() {
            let flag = if token.starts_with('-') {
                flags.iter().find(|f| f.name == token)
            } else {
                flags.iter().find(|f| f.positional() && !args.has(f.name))
            };
            let Some(flag) = flag else {
                return Err(format!("unknown argument {token}"));
            };
            if args.has(flag.name) {
                return Err(format!("{token} given twice"));
            }
            let value = match flag.kind {
                Kind::Switch => String::new(),
                _ if flag.positional() => token.clone(),
                _ => match it.next() {
                    Some(v) if !v.starts_with("--") => v.clone(),
                    _ => return Err(format!("{token} needs a value")),
                },
            };
            let expected = match flag.kind {
                Kind::Int if value.parse::<u64>().is_err() => "a number".to_string(),
                Kind::Real if value.parse::<f64>().is_err() => "a number".to_string(),
                Kind::Choice(names) if !names.contains(&value.as_str()) => {
                    format!("one of {}", names.join("|"))
                }
                _ => String::new(),
            };
            if !expected.is_empty() {
                return Err(format!("{}: '{value}' is not {expected}", flag.name));
            }
            args.0.push((flag.name, value));
        }
        match flags.iter().find(|f| f.positional() && !args.has(f.name)) {
            Some(missing) => Err(format!("missing {}", missing.name)),
            None => Ok(args),
        }
    }

    /// Was the flag given?
    pub fn has(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// The flag's value, if given.
    pub fn get(&self, name: &str) -> Option<&str> {
        let (_, value) = self.0.iter().find(|(n, _)| *n == name)?;
        Some(value)
    }

    /// A [`Kind::Int`] flag's value, or `default` when absent.
    pub fn int(&self, name: &str, default: u64) -> u64 {
        self.get(name)
            .map_or(default, |v| v.parse().expect("validated by Args::parse"))
    }

    /// A [`Kind::Real`] flag's value, or `default` when absent.
    pub fn real(&self, name: &str, default: f64) -> f64 {
        self.get(name)
            .map_or(default, |v| v.parse().expect("validated by Args::parse"))
    }
}

/// The usage text for one command: synopsis, description, flag list.
pub fn usage(command: &str, about: &str, flags: &[Flag]) -> String {
    let mut out = format!("usage: {command}");
    for f in flags.iter().filter(|f| f.positional()) {
        out.push_str(&format!(" <{}>", f.name));
    }
    out += &format!(" [flags]\n  {about}\n");
    for f in flags {
        let value = match f.kind {
            Kind::Switch => String::new(),
            Kind::Text(meta) => meta.to_string(),
            Kind::Choice(names) => names.join("|"),
            Kind::Int => "N".to_string(),
            Kind::Real => "X".to_string(),
        };
        let left = match f.positional() {
            true => value,
            false => format!("{} {value}", f.name),
        };
        out += &format!("  {left:<22}  {}\n", f.help);
    }
    out
}

/// What a workload hands back: everything it would have printed,
/// written or compared, as data.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The human-readable report (the `results/*.txt` content).
    pub text: String,
    /// The `BENCH_*.json` content, when this configuration renders it.
    pub json: Option<String>,
    /// `(field, value)` digests `--check` compares with the committed
    /// file.
    pub digests: Vec<(&'static str, u64)>,
    /// `(label, passed)` relations measured inside the run; a failed
    /// one fails the run whether or not `--check` was given.
    pub checks: Vec<(String, bool)>,
    /// `(path, content)` artifacts the workload's own flags asked for.
    pub files: Vec<(String, String)>,
}

impl Outcome {
    /// A text-only outcome.
    pub(crate) fn text(text: String) -> Outcome {
        Outcome {
            text,
            ..Outcome::default()
        }
    }

    /// One `(line, passed)` verdict per digest — compared with the
    /// `committed` file's field of the same name — and per extra check.
    pub fn verdicts(&self, committed: Option<&str>) -> Vec<(String, bool)> {
        let digests = committed.iter().flat_map(|json| {
            self.digests.iter().map(|&(field, got)| {
                let want = committed_digest(json, field);
                let shown = want.map_or("<missing>".to_string(), |d| format!("{d:016x}"));
                (
                    format!("{field} {got:016x} vs committed {shown}"),
                    want == Some(got),
                )
            })
        });
        digests.chain(self.checks.iter().cloned()).collect()
    }
}

/// One entry of the `bench` registry.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// The name typed after `bench`.
    pub name: &'static str,
    /// One line for `--list` and `--help`.
    pub about: &'static str,
    /// Its declared flags (`WRITE_TEXT` is implied).
    pub flags: &'static [Flag],
    /// Run it.
    pub run: fn(&Args) -> Outcome,
}

impl Workload {
    /// Declare a workload.
    pub(crate) const fn new(
        name: &'static str,
        about: &'static str,
        flags: &'static [Flag],
        run: fn(&Args) -> Outcome,
    ) -> Workload {
        Workload {
            name,
            about,
            flags,
            run,
        }
    }

    /// Every flag the workload accepts.
    fn all_flags(&self) -> Vec<Flag> {
        [self.flags, &[WRITE_TEXT]].concat()
    }

    fn usage_error(&self, message: &str) -> ExitCode {
        eprintln!("bench {}: {message}", self.name);
        let command = format!("bench {}", self.name);
        eprint!("{}", usage(&command, self.about, &self.all_flags()));
        ExitCode::from(2)
    }

    /// Parse `argv`, run, then write, print and gate the outcome.
    fn execute(&self, argv: &[String]) -> ExitCode {
        let args = match Args::parse(&self.all_flags(), argv) {
            Ok(args) => args,
            Err(message) => return self.usage_error(&message),
        };
        let committed = match args.get(CHECK.name).map(std::fs::read_to_string) {
            Some(Err(e)) => return self.usage_error(&format!("cannot read --check file: {e}")),
            Some(Ok(json)) => Some(json),
            None => None,
        };
        let mut out = (self.run)(&args);
        if let Some(path) = args.get(WRITE_TEXT.name) {
            out.files.push((path.to_string(), out.text.clone()));
        }
        match (args.get(WRITE_JSON.name), &out.json) {
            (Some(path), Some(json)) => out.files.push((path.to_string(), json.clone())),
            (Some(_), None) => {
                return self.usage_error("--write-json: this configuration renders no JSON");
            }
            (None, _) => {}
        }
        for (path, content) in &out.files {
            if let Err(e) = std::fs::write(path, content) {
                eprintln!("bench {}: cannot write {path}: {e}", self.name);
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {path}");
        }
        if !args.has(WRITE_TEXT.name) && !args.has(WRITE_JSON.name) {
            print!("{}", out.text);
            if let Some(json) = &out.json {
                print!("\n{json}");
            }
        }
        let mut failed = false;
        for (line, ok) in out.verdicts(committed.as_deref()) {
            eprintln!("check: {line} — {}", if ok { "ok" } else { "FAIL" });
            failed |= !ok;
        }
        if failed {
            eprintln!("check: {} failed", self.name);
            return ExitCode::FAILURE;
        }
        ExitCode::SUCCESS
    }
}

/// The `bench` driver: `bench <workload> [flags]`, `bench --list`,
/// `bench --help`, `bench <workload> --help`.
pub fn main(workloads: &[Workload], argv: &[String]) -> ExitCode {
    let list = || {
        let mut out = String::from("usage: bench <workload> [flags] | bench --list\n");
        for w in workloads {
            out += &format!("  {:<12} {}\n", w.name, w.about);
        }
        out
    };
    let Some((first, rest)) = argv.split_first() else {
        eprint!("{}", list());
        return ExitCode::from(2);
    };
    match first.as_str() {
        "--help" | "-h" => print!("{}", list()),
        "--list" => workloads.iter().for_each(|w| println!("{}", w.name)),
        name => {
            let Some(w) = workloads.iter().find(|w| w.name == name) else {
                eprintln!("bench: unknown workload {name}");
                eprint!("{}", list());
                return ExitCode::from(2);
            };
            if rest.iter().any(|a| a == "--help" || a == "-h") {
                let command = format!("bench {}", w.name);
                print!("{}", usage(&command, w.about, &w.all_flags()));
            } else {
                return w.execute(rest);
            }
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    /// The writer against `BENCH_topo.json` as committed, less ten of
    /// its twelve `curve` rows and all but two comment lines.
    #[test]
    fn json_writer_reproduces_the_committed_shape_and_digests_read_back() {
        let mut json = Json::new(&[
            "reproduce this file byte-identically. CI's topo-smoke job",
            "re-runs the smoke sweep and gates on smoke_digest.",
        ]);
        let config = Obj::new()
            .raw("barrier_rounds", 4)
            .raw("allreduce_bytes", 1024)
            .raw("allreduce_rounds", 2)
            .raw("seed", 7);
        json.put("config", config);
        let row = |topo, nodes, diameter, links, bar: [f64; 2], ar: [f64; 2]| {
            Obj::new()
                .str("topo", topo)
                .raw("nodes", nodes)
                .raw("diameter", diameter)
                .raw("links", links)
                .num("sw_barrier_us", bar[0], 2)
                .num("hw_barrier_us", bar[1], 2)
                .num("barrier_speedup", bar[0] / bar[1], 2)
                .num("sw_allreduce_us", ar[0], 2)
                .num("hw_allreduce_us", ar[1], 2)
                .num("allreduce_speedup", ar[0] / ar[1], 2)
        };
        let rows = [
            row("mesh", 64, 14, 224, [21.3523, 1.966], [261.7, 25.6919]),
            row("dragonfly", 64, 3, 504, [20.97, 0.6314], [277.66, 24.3644]),
        ];
        json.rows("curve", rows.into_iter());
        json.hex("smoke_digest", 0xb6b8_57d1_225d_ad08);
        json.hex("topo_digest", 0x9a6b_5e47_a5ee_c662);
        let json = json.finish();
        let golden = r#"{
  "comment": [
    "reproduce this file byte-identically. CI's topo-smoke job",
    "re-runs the smoke sweep and gates on smoke_digest."
  ],
  "config": {"barrier_rounds": 4, "allreduce_bytes": 1024, "allreduce_rounds": 2, "seed": 7},
  "curve": [
    {"topo": "mesh", "nodes": 64, "diameter": 14, "links": 224, "sw_barrier_us": 21.35, "hw_barrier_us": 1.97, "barrier_speedup": 10.86, "sw_allreduce_us": 261.70, "hw_allreduce_us": 25.69, "allreduce_speedup": 10.19},
    {"topo": "dragonfly", "nodes": 64, "diameter": 3, "links": 504, "sw_barrier_us": 20.97, "hw_barrier_us": 0.63, "barrier_speedup": 33.21, "sw_allreduce_us": 277.66, "hw_allreduce_us": 24.36, "allreduce_speedup": 11.40}
  ],
  "smoke_digest": "b6b857d1225dad08",
  "topo_digest": "9a6b5e47a5eec662"
}
"#;
        assert_eq!(json, golden);
        assert_eq!(
            committed_digest(&json, "smoke_digest"),
            Some(0xb6b8_57d1_225d_ad08)
        );
        assert_eq!(
            committed_digest(&json, "topo_digest"),
            Some(0x9a6b_5e47_a5ee_c662)
        );
        assert_eq!(committed_digest(&json, "soak_digest"), None, "missing");
        assert_eq!(committed_digest(r#""d": "b6b857d1""#, "d"), None, "short");
        let non_hex = r#""d": "b6b857d1225dad0z""#;
        assert_eq!(committed_digest(non_hex, "d"), None, "non-hex");
    }

    /// A sample of each cell kind through all three readers: what the
    /// digest takes, the JSON object's keys and the table's columns all
    /// come off the one list, in its order.
    #[test]
    fn a_row_is_read_three_ways_off_one_list() {
        use Cell::{Count, Digest, Ps, Real, Text, Times};
        let row = Row(vec![
            field("topo", Text("mesh".to_string())).col("topo", 6),
            field("issued", Count(7)).col("issued", 6),
            field("p50_us", Ps(1_234_567)).col("p50", 8),
            field("mb_s", Real(22.849, 1)).col("MB/s", 6).shown_only(),
            field("speedup", Times(13.9)).col("speedup", 8).shown_only(),
            field("hist_digest", Digest(0xabc)),
            field("span_ps", Count(99)).col("span", 6).digest_only(),
            field("spans", Count(3)),
        ]);
        // The digest: every cell but the shown-only two, in list order.
        let mut fed = Fnv1a::default();
        row.feed(&mut fed);
        let mut want = Fnv1a::default();
        want.bytes(b"mesh").u64(7).u64(1_234_567);
        want.u64(0xabc).u64(99).u64(3);
        assert_eq!(fed.finish(), want.finish());
        // The JSON: list order, digests last, the digest-only cell absent.
        assert_eq!(
            row.json().to_string(),
            r#"{"topo": "mesh", "issued": 7, "p50_us": 1.23, "mb_s": 22.8, "speedup": 13.90, "spans": 3, "hist_digest": "0000000000000abc"}"#
        );
        // The text: the cells given a column, the digest-only one absent.
        assert_eq!(
            row.table_line(true),
            "  topo issued      p50   MB/s  speedup\n"
        );
        assert_eq!(
            row.table_line(false),
            "  mesh      7     1.23   22.8   13.90x\n"
        );
        assert_eq!(
            row.pairs(),
            "issued=7 p50_us=1.23 mb_s=22.8 speedup=13.90x spans=3"
        );
        // A rendered file gives every digest back by field name: the
        // row's own and the file's closing ones.
        let mut json = Json::new(&["a row, then the file's digests"]);
        json.put("row", row.json());
        json.hex("smoke_digest", 5);
        json.hex("row_digest", fed.finish());
        let file = json.finish();
        for (field, digest) in [
            ("hist_digest", 0xabc),
            ("smoke_digest", 5),
            ("row_digest", fed.finish()),
        ] {
            assert_eq!(committed_digest(&file, field), Some(digest), "{field}");
        }
    }

    #[test]
    fn parser_rejects_everything_it_was_not_told_about() {
        let flags = [SMOKE, CHECK, Flag::new("--seeds", Kind::Int, "")];
        let positional = [
            Flag::new("PROFILE", Kind::Choice(&["fig5", "fig7"]), ""),
            SMOKE,
        ];
        let cases: [(&[Flag], &str, &str); 10] = [
            (
                &flags,
                "--smoke --chekc BENCH_topo.json",
                "unknown argument --chekc",
            ),
            (&flags, "--smoke --check", "--check needs a value"),
            (&flags, "--check --smoke", "--check needs a value"),
            (&flags, "--seeds abc", "--seeds: 'abc' is not a number"),
            (&flags, "--seeds -1", "--seeds: '-1' is not a number"),
            (&flags, "--smoke --smoke", "--smoke given twice"),
            (&flags, "stray", "unknown argument stray"),
            (&positional, "--smoke", "missing PROFILE"),
            (&positional, "fig5 fig7", "unknown argument fig7"),
            (
                &positional,
                "fig9",
                "PROFILE: 'fig9' is not one of fig5|fig7",
            ),
        ];
        for (flags, line, want) in cases {
            assert_eq!(Args::parse(flags, &argv(line)).unwrap_err(), want, "{line}");
        }
        let args = Args::parse(&flags, &argv("--seeds 3 --check f.json")).unwrap();
        assert_eq!(
            (args.int("--seeds", 2), args.get("--check")),
            (3, Some("f.json"))
        );
        assert_eq!((args.has("--smoke"), args.real("--x", 1.5)), (false, 1.5));
    }

    #[test]
    fn every_workload_parses_its_declared_flags_and_nothing_else() {
        for w in crate::WORKLOADS {
            let mut line = Vec::new();
            for f in w.all_flags() {
                if !f.positional() {
                    line.push(f.name.to_string());
                }
                match f.kind {
                    Kind::Switch => {}
                    Kind::Text(_) => line.push("some/path".to_string()),
                    Kind::Choice(names) => line.push(names[0].to_string()),
                    Kind::Int | Kind::Real => line.push("7".to_string()),
                }
            }
            let args =
                Args::parse(&w.all_flags(), &line).unwrap_or_else(|e| panic!("{}: {e}", w.name));
            assert!(w.all_flags().iter().all(|f| args.has(f.name)), "{}", w.name);
            line.push("--json".to_string());
            assert!(Args::parse(&w.all_flags(), &line).is_err(), "{}", w.name);
            assert!(usage(w.name, w.about, &w.all_flags()).contains("--write-text PATH"));
        }
    }

    #[test]
    fn verdicts_gate_each_named_digest_and_always_carry_the_extra_checks() {
        let out = Outcome {
            digests: vec![("a_digest", 1), ("b_digest", 2), ("c_digest", 3)],
            checks: vec![("relation".to_string(), false)],
            ..Outcome::default()
        };
        let committed = r#""a_digest": "0000000000000001", "b_digest": "00000000000000ff""#;
        let oks = |v: Vec<(String, bool)>| v.into_iter().map(|(_, ok)| ok).collect::<Vec<_>>();
        assert_eq!(
            oks(out.verdicts(Some(committed))),
            [true, false, false, false]
        );
        assert_eq!(oks(out.verdicts(None)), [false]);
    }
}
