//! `sqda` — command-line interface to the similarity-query system.
//!
//! ```text
//! sqda generate --kind california --n 62173 --out places.csv
//! sqda build    --input places.csv --store ./mystore --disks 10
//! sqda query    --store ./mystore --point 0.42,0.37 --k 5 --algo crss
//! sqda range    --store ./mystore --point 0.42,0.37 --radius 0.01
//! sqda stats    --store ./mystore
//! sqda simulate --store ./mystore --k 10 --lambda 5 --queries 100
//! sqda estimate --store ./mystore --k 10 --lambda 5
//! sqda explain  --store ./mystore --point 0.42,0.37 --k 10
//! sqda serve    --store ./mystore --port 7878
//! ```

#![forbid(unsafe_code)]

mod args;
mod commands;
mod meta;
mod serve;

use args::Args;

const HELP: &str = "\
sqda — similarity query processing using disk arrays

USAGE: sqda <command> [--option value ...]

COMMANDS:
  generate   synthesize a dataset CSV
             --kind uniform|gaussian|california|longbeach  --n <count>
             [--dim <d>=2] [--seed <s>=0] --out <file.csv>
  build      build a persistent declustered R*-tree from a CSV
             --input <file.csv> --store <dir> [--disks <n>=10]
             [--page-size <bytes>=4096] [--decluster pi|rr|random|data|area]
             [--split rstar|quadratic|linear] [--bulk] [--seed <s>=0]
             [--external [--run-capacity <pts>=262144] [--jobs <n>=1]]
  (--external streams the CSV through the out-of-core bulk builder:
   sort runs spill through a scratch store under <store>/scratch, RAM
   stays O(run-capacity x jobs) points regardless of input size.)
  query      k nearest neighbours
             --store <dir> --point <x,y,...> [--k <k>=10]
             [--algo bbss|fpss|crss|woptss|frontier=crss] [--seed <s>=0]
             [--trace <file>] [--metrics <file>]
  range      similarity range query
             --store <dir> --point <x,y,...> --radius <r>
  stats      tree statistics
             --store <dir>
  simulate   multi-user response-time simulation on the modelled array
             --store <dir> [--k <k>=10] [--lambda <q/s>=5]
             [--queries <n>=100] [--algo ...=crss] [--seed <s>=0]
             [--mirrored] [--cpus <n>=1]
             [--fail-disks <n>=0] [--fail-at <seconds>=0]
             [--trace <file>] [--metrics <file>]
  (--fail-disks injects seed-driven fail-stop faults: that many disks
   die at --fail-at; with --mirrored their reads degrade to the shadow
   partner, without it the touched queries abort with a typed error.)
  (--trace writes Chrome/Perfetto trace_event JSON — open at
   https://ui.perfetto.dev — or a raw JSONL event log if the path ends
   in .jsonl; --metrics writes a JSON metrics snapshot + per-query
   profiles.)
  estimate   analytical response-time prediction (no simulation)
             --store <dir> [--k <k>=10] [--lambda <q/s>=5]
             [--uncalibrated]
  explain    run one k-NN query and print a one-line JSON introspection
             record: observed per-level accesses, batches, threshold
             trajectory, per-disk reads, cache split and timings next
             to the analytical prediction and residuals
             --store <dir> --point <x,y,...> [--k <k>=10]
             [--algo bbss|fpss|crss|woptss|frontier=crss] [--lambda <q/s>=1]
             [--cache <pages>=4096] [--uncalibrated]
  (simulate / estimate / explain load <store>/calibration.json when
   present — fitted device service terms written by a prior serve run —
   unless --uncalibrated is given.)
  serve      answer k-NN queries over TCP with the real-clock engine
             --store <dir> [--port <p>=0 (0 = ephemeral)]
             [--backend file=file] [--cache <pages>=4096]
             [--cache-bytes <bytes>=0 (overrides --cache: hard byte cap)]
             [--flight-cap <events>=0] [--slow-query-ms <ms>]
             [--slow-query-log <file.jsonl>] [--uncalibrated]
             [--trace <file>] [--metrics <file>]
  (line protocol, one reply per request line:
     QUERY <x,y,...> <k> [bbss|fpss|crss|woptss|frontier=frontier]
                   ->  OK <n> <id>:<dist>...
     EXPLAIN <x,y,...> <k> [algo=frontier] -> one-line JSON introspection
                   record
     BATCH <x,y;x,y;...> <k>  ->  OK <B> fetches=<unique>/<interest>
                   rounds=<r> wall_us=<t> q0=<id>:<dist>,... q1=...
                   (B <= 1024 FPSS queries over shared rounds)
     PING -> PONG   STATS -> counters   QUIT / SHUTDOWN -> BYE
     METRICS -> Prometheus text exposition, read until the '# EOF' line
     DUMP-TRACE <name> -> write the flight-recorder ring as the trace
                          file <store>/trace/<name> (a bare file name))
  (--flight-cap arms a bounded in-memory ring of engine events for
   DUMP-TRACE; --slow-query-ms / --slow-query-log append a JSONL
   breakdown per query at or over the threshold; --trace implies a
   flight ring and writes it at shutdown, --metrics writes a JSON
   metrics snapshot at shutdown; at shutdown serve also refits device
   service terms from the live disk counters and writes
   <store>/calibration.json unless --uncalibrated.)
  help       this text
";

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() || argv[0] == "help" || argv[0] == "--help" {
        print!("{HELP}");
        return;
    }
    let args = match Args::parse(argv, &["bulk", "mirrored", "external", "uncalibrated"]) {
        Ok(a) => a,
        Err(e) => fail(&e),
    };
    let result = match args.command.as_str() {
        "generate" => commands::generate(&args),
        "build" => commands::build(&args),
        "query" => commands::query(&args),
        "range" => commands::range(&args),
        "stats" => commands::stats(&args),
        "simulate" => commands::simulate(&args),
        "estimate" => commands::estimate(&args),
        "explain" => commands::explain(&args),
        "serve" => serve::serve(&args),
        other => {
            eprintln!("unknown command {other:?}\n");
            print!("{HELP}");
            std::process::exit(2);
        }
    };
    let result = result.and_then(|()| args.finish().map_err(Into::into));
    if let Err(e) = result {
        fail(e.as_ref());
    }
}

fn fail(e: &dyn std::fmt::Display) -> ! {
    eprintln!("error: {e}");
    std::process::exit(1);
}
