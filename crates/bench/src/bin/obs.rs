//! Operator CLI for the mesh API namespace.
//!
//! ```text
//! obs ls  <path> --addr <ip:port>           # enumerate a namespace branch
//! obs get <path> --addr <ip:port>           # read a leaf or dump a branch
//! obs set <path> <value> --addr <ip:port>   # control-plane write
//! obs validate <file.json>...               # check Report envelopes
//! ```
//!
//! `ls`/`get`/`set` are thin verbs over the path-addressed mesh API
//! (`MetaRequest`/`MetaReply` frames): one virtual tree rooted at
//! `mesh/nodes/<id>` with `meta/<path>` for capability discovery — try
//! `obs ls meta --addr ...` to see every route a node serves. Output is
//! one `path  value` line per entry, exactly as the node answered
//! (sorted; `List` output is byte-identical across seeded runs).
//!
//! `validate` parses each file and checks the versioned Report envelope
//! head (`schema_version`, `artifact`, `payload`) that every harness
//! artifact ships in. The process exits nonzero if any file fails — CI's
//! obs-smoke and meta-smoke jobs run it over everything the harness
//! emitted.

use bh_bench::report::parse_envelope;
use bh_proto::client::Connection;
use bh_proto::wire::MetaEntry;
use std::io::Write;
use std::net::SocketAddr;
use std::process::ExitCode;

/// Writes one stdout line, exiting quietly when the reader is gone —
/// `obs ls … | head` closes the pipe early and must not panic.
fn out(line: std::fmt::Arguments<'_>) {
    let mut stdout = std::io::stdout().lock();
    if writeln!(stdout, "{line}").is_err() {
        std::process::exit(0);
    }
}

fn usage() -> ! {
    eprintln!("usage: obs ls  <path> --addr <ip:port>");
    eprintln!("       obs get <path> --addr <ip:port>");
    eprintln!("       obs set <path> <value> --addr <ip:port>");
    eprintln!("       obs validate <file.json>...");
    std::process::exit(2);
}

/// Splits `args` into positional operands and the `--addr` value.
fn parse_target(args: &[String], positionals: usize) -> (Vec<&str>, SocketAddr) {
    let mut addr: Option<SocketAddr> = None;
    let mut pos = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => {
                let v = it.next().unwrap_or_else(|| usage());
                addr = Some(v.parse().expect("--addr takes ip:port"));
            }
            other if !other.starts_with("--") => pos.push(other),
            _ => usage(),
        }
    }
    if pos.len() != positionals {
        usage();
    }
    let Some(addr) = addr else { usage() };
    (pos, addr)
}

fn connect(addr: SocketAddr) -> Result<Connection, ExitCode> {
    Connection::open(addr).map_err(|e| {
        eprintln!("obs: cannot connect to {addr}: {e}");
        ExitCode::FAILURE
    })
}

fn print_entries(entries: &[MetaEntry]) {
    for e in entries {
        if e.value.is_empty() {
            out(format_args!("{}", e.path));
        } else {
            out(format_args!("{:<48} {}", e.path, e.value));
        }
    }
}

/// `ls` and `get`: one namespace read, one line per entry.
fn read_verb(list: bool, args: &[String]) -> ExitCode {
    let (pos, addr) = parse_target(args, 1);
    let mut conn = match connect(addr) {
        Ok(c) => c,
        Err(code) => return code,
    };
    let result = if list {
        conn.meta_list(pos[0])
    } else {
        conn.meta_get(pos[0])
    };
    match result {
        Ok(entries) => {
            print_entries(&entries);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("obs: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `set`: one control-plane write; prints the echoed entries.
fn set_verb(args: &[String]) -> ExitCode {
    let (pos, addr) = parse_target(args, 2);
    let mut conn = match connect(addr) {
        Ok(c) => c,
        Err(code) => return code,
    };
    match conn.meta_set(pos[0], pos[1]) {
        Ok(entries) => {
            print_entries(&entries);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("obs: {e}");
            ExitCode::FAILURE
        }
    }
}

fn validate(files: &[String]) -> ExitCode {
    if files.is_empty() {
        usage();
    }
    let mut failures = 0usize;
    for file in files {
        let text = match std::fs::read_to_string(file) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("FAIL {file}: {e}");
                failures += 1;
                continue;
            }
        };
        match parse_envelope(&text) {
            Ok(env) => out(format_args!(
                "ok   {file}: artifact `{}`, schema v{}",
                env.artifact, env.schema_version
            )),
            Err(e) => {
                eprintln!("FAIL {file}: {e}");
                failures += 1;
            }
        }
    }
    if failures > 0 {
        eprintln!("obs: {failures} file(s) failed validation");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.split_first() {
        Some((cmd, rest)) if cmd == "ls" => read_verb(true, rest),
        Some((cmd, rest)) if cmd == "get" => read_verb(false, rest),
        Some((cmd, rest)) if cmd == "set" => set_verb(rest),
        Some((cmd, rest)) if cmd == "validate" => validate(rest),
        _ => usage(),
    }
}
