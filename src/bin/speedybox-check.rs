//! `speedybox-check` — drive the concurrency model checker over the
//! repo's protocol models from the command line.
//!
//! The same scenarios run under `cargo test` (exhaustive tier, CI's
//! `model-check` job); this binary adds the seeded random-walk tier for
//! nightly soaks, selective runs, and failing-trace export:
//!
//! ```text
//! speedybox-check --list
//! speedybox-check                         # exhaustive tier, all models
//! speedybox-check --model rcu-load-store  # one model
//! speedybox-check --mode random --seed 7 --iters 20000
//! speedybox-check --seeded                # also run mutation twins
//! speedybox-check --trace-dir traces/     # write failing schedules
//! ```
//!
//! Exit status: 0 = every clean model verified (and, with `--seeded`,
//! every mutation twin caught); 1 = a violation was found or a twin was
//! missed; 2 = usage error.

use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use arcswap::model::{scenarios as rcu, Mutation};
use speedybox_check::{BugKind, Checker, Config, Outcome};
use speedybox_mat::model::{scenarios as mat, ClMutation, FtMutation, QMutation};

/// A boxed scenario, callable many times by the explorer.
type Scenario = Box<dyn Fn() + Send + Sync + 'static>;

/// A seeded-bug twin of a clean model: the checker must catch it.
struct Twin {
    name: &'static str,
    expected: BugKind,
    build: fn() -> Scenario,
}

/// One registered protocol model.
struct Model {
    name: &'static str,
    /// Preemption bound for the exhaustive tier (matches the test tier).
    bound: usize,
    clean: fn() -> Scenario,
    twins: &'static [Twin],
}

const MODELS: &[Model] = &[
    Model {
        name: "rcu-load-store",
        bound: 3,
        clean: || Box::new(rcu::rcu_load_store(Mutation::None)),
        twins: &[
            Twin {
                name: "rcu-weak-collect-load",
                expected: BugKind::UseAfterFree,
                build: || Box::new(rcu::rcu_load_store(Mutation::WeakCollectLoad)),
            },
            Twin {
                name: "rcu-retire-before-swap",
                expected: BugKind::UseAfterFree,
                build: || Box::new(rcu::rcu_load_store(Mutation::RetireBeforeSwap)),
            },
            Twin {
                name: "rcu-skip-retire",
                expected: BugKind::Leak,
                build: || Box::new(rcu::rcu_load_store(Mutation::SkipRetire)),
            },
        ],
    },
    Model {
        name: "rcu-with-store",
        bound: 3,
        clean: || Box::new(rcu::rcu_with_store(Mutation::None)),
        twins: &[Twin {
            name: "rcu-early-guard-release",
            expected: BugKind::UseAfterFree,
            build: || Box::new(rcu::rcu_with_store(Mutation::EarlyGuardRelease)),
        }],
    },
    Model {
        name: "rcu-two-readers",
        bound: 2,
        clean: || Box::new(rcu::rcu_two_readers(Mutation::None)),
        twins: &[],
    },
    Model {
        name: "rcu-drain-deferred",
        bound: 3,
        clean: || Box::new(rcu::rcu_drain_deferred(Mutation::None)),
        twins: &[],
    },
    Model {
        name: "ft-evict-vs-rewrite",
        bound: 2,
        clean: || Box::new(mat::ft_evict_vs_rewrite(FtMutation::None)),
        twins: &[Twin {
            name: "ft-toctou-replace",
            expected: BugKind::Panic,
            build: || Box::new(mat::ft_evict_vs_rewrite(FtMutation::ToctouReplace)),
        }],
    },
    Model {
        name: "ft-recycle-vs-reader",
        bound: 2,
        clean: || Box::new(mat::ft_recycle_vs_reader(FtMutation::None)),
        twins: &[Twin {
            name: "ft-skip-index-reset",
            expected: BugKind::Panic,
            build: || Box::new(mat::ft_recycle_vs_reader(FtMutation::SkipIndexReset)),
        }],
    },
    Model {
        name: "cl-memo-vs-republish",
        bound: 3,
        clean: || Box::new(mat::cl_memo_vs_republish(ClMutation::None)),
        twins: &[Twin {
            name: "cl-memo-raw-handle",
            expected: BugKind::UseAfterFree,
            build: || Box::new(mat::cl_memo_vs_republish(ClMutation::MemoRawHandle)),
        }],
    },
    Model {
        name: "q-kill-vs-reader",
        bound: 2,
        clean: || Box::new(mat::q_kill_vs_reader(QMutation::None)),
        twins: &[Twin {
            name: "q-republish-before-replay",
            expected: BugKind::Panic,
            build: || Box::new(mat::q_kill_vs_reader(QMutation::RepublishBeforeReplay)),
        }],
    },
];

#[derive(Clone, Copy, PartialEq, Eq)]
enum CliMode {
    Exhaustive,
    Random,
}

struct Cli {
    mode: CliMode,
    seed: u64,
    iters: usize,
    model: Option<String>,
    seeded: bool,
    trace_dir: Option<PathBuf>,
}

fn usage() -> &'static str {
    "usage: speedybox-check [--mode exhaustive|random] [--seed N] [--iters N]\n\
     \x20                      [--model NAME] [--seeded] [--trace-dir DIR] [--list]\n\
     \x20 --mode       exploration strategy (default: exhaustive)\n\
     \x20 --seed       base PRNG seed for the random walk (default: 1)\n\
     \x20 --iters      random-walk executions per model (default: 10000)\n\
     \x20 --model      run a single model (see --list)\n\
     \x20 --seeded     also run the seeded-bug mutation twins (must be caught)\n\
     \x20 --trace-dir  write failing schedule traces into DIR\n\
     \x20 --list       list registered models and twins"
}

fn parse(args: &[String]) -> Result<Option<Cli>, String> {
    let mut cli = Cli {
        mode: CliMode::Exhaustive,
        seed: 1,
        iters: 10_000,
        model: None,
        seeded: false,
        trace_dir: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value =
            |flag: &str| it.next().cloned().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--list" => {
                for m in MODELS {
                    println!("{} (bound {})", m.name, m.bound);
                    for t in m.twins {
                        println!("  twin: {} (expects {})", t.name, t.expected);
                    }
                }
                return Ok(None);
            }
            "--mode" => {
                cli.mode = match value("--mode")?.as_str() {
                    "exhaustive" => CliMode::Exhaustive,
                    "random" => CliMode::Random,
                    other => return Err(format!("unknown mode `{other}`")),
                };
            }
            "--seed" => {
                cli.seed = value("--seed")?.parse().map_err(|e| format!("bad --seed: {e}"))?;
            }
            "--iters" => {
                cli.iters = value("--iters")?.parse().map_err(|e| format!("bad --iters: {e}"))?;
            }
            "--model" => cli.model = Some(value("--model")?),
            "--seeded" => cli.seeded = true,
            "--trace-dir" => cli.trace_dir = Some(PathBuf::from(value("--trace-dir")?)),
            "--help" | "-h" => {
                println!("{}", usage());
                return Ok(None);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Some(cli))
}

/// Writes a failing schedule trace for later deterministic replay.
fn write_trace(dir: &PathBuf, name: &str, out: &Outcome) {
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("trace-dir: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(format!("{name}.trace.txt"));
    let mut body = String::new();
    body.push_str(&format!("model: {name}\n{}\n", out.summary()));
    for bug in &out.bugs {
        body.push_str(&format!("\n[{}] {}\nschedule: {}\n", bug.kind, bug.message, bug.schedule));
        if let Some(seed) = bug.seed {
            body.push_str(&format!("seed: {seed}\n"));
        }
        body.push_str("trace:\n");
        for line in &bug.trace {
            body.push_str(&format!("  {line}\n"));
        }
    }
    match std::fs::File::create(&path).and_then(|mut f| f.write_all(body.as_bytes())) {
        Ok(()) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("trace-dir: cannot write {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    // Model threads unwind on purpose (assertion oracles, abort-on-poison);
    // the checker records everything worth seeing, so the default panic
    // hook's per-unwind backtrace spam is pure noise here.
    std::panic::set_hook(Box::new(|_| {}));
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(Some(cli)) => cli,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };

    let selected: Vec<&Model> = match &cli.model {
        Some(name) => match MODELS.iter().find(|m| m.name == *name) {
            Some(m) => vec![m],
            None => {
                eprintln!("error: unknown model `{name}` (see --list)");
                return ExitCode::from(2);
            }
        },
        None => MODELS.iter().collect(),
    };

    let mut failed = false;
    for model in &selected {
        let config = match cli.mode {
            CliMode::Exhaustive => Config::exhaustive(model.bound),
            CliMode::Random => Config::random(cli.seed, cli.iters),
        };
        let out = Checker::new(config).check(model.name, (model.clean)());
        println!("{}", out.summary());
        if !out.bugs.is_empty() || out.execution_cap_hit {
            failed = true;
            for bug in &out.bugs {
                eprintln!("  [{}] {} (schedule {})", bug.kind, bug.message, bug.schedule);
            }
            if out.execution_cap_hit {
                eprintln!("  execution cap hit before the state space was exhausted");
            }
            if let Some(dir) = &cli.trace_dir {
                write_trace(dir, model.name, &out);
            }
        }
    }

    if cli.seeded {
        // Twins always run exhaustively: catching them is a guarantee of
        // the exhaustive tier, not a matter of random luck.
        for model in &selected {
            for twin in model.twins {
                let out =
                    Checker::new(Config::exhaustive(model.bound)).check(twin.name, (twin.build)());
                let caught = out.bugs.iter().any(|b| b.kind == twin.expected);
                if caught {
                    println!("{} caught (expected {})", twin.name, twin.expected);
                } else {
                    failed = true;
                    eprintln!(
                        "{} MISSED: expected {}, got {}",
                        twin.name,
                        twin.expected,
                        out.summary()
                    );
                    if let Some(dir) = &cli.trace_dir {
                        write_trace(dir, twin.name, &out);
                    }
                }
            }
        }
    }

    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
