//! End-to-end tests of the `sqda` binary: generate → build → query →
//! stats → simulate → estimate, through real process invocations.

use std::path::PathBuf;
use std::process::{Command, Output};

fn sqda(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sqda"))
        .args(args)
        .output()
        .expect("launch sqda")
}

fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sqda-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn stdout(o: &Output) -> String {
    assert!(
        o.status.success(),
        "command failed: {}\n{}",
        String::from_utf8_lossy(&o.stderr),
        String::from_utf8_lossy(&o.stdout)
    );
    String::from_utf8_lossy(&o.stdout).into_owned()
}

#[test]
fn full_workflow() {
    let dir = workdir("workflow");
    let csv = dir.join("points.csv");
    let store = dir.join("store");

    // generate
    let out = stdout(&sqda(&[
        "generate",
        "--kind",
        "california",
        "--n",
        "3000",
        "--seed",
        "7",
        "--out",
        csv.to_str().unwrap(),
    ]));
    assert!(out.contains("3000"), "{out}");

    // build
    let out = stdout(&sqda(&[
        "build",
        "--input",
        csv.to_str().unwrap(),
        "--store",
        store.to_str().unwrap(),
        "--disks",
        "4",
        "--page-size",
        "1024",
    ]));
    assert!(out.contains("3000 objects"), "{out}");

    // stats
    let out = stdout(&sqda(&["stats", "--store", store.to_str().unwrap()]));
    assert!(out.contains("invariants     : OK"), "{out}");
    assert!(out.contains("objects        : 3000"), "{out}");

    // query
    let out = stdout(&sqda(&[
        "query",
        "--store",
        store.to_str().unwrap(),
        "--point",
        "0.5,0.5",
        "--k",
        "5",
        "--algo",
        "crss",
    ]));
    assert!(out.contains("CRSS found 5 neighbours"), "{out}");
    // A point whose squared distances overflow is refused, not answered
    // with five arbitrary objects at distance inf.
    let far = sqda(&[
        "query",
        "--store",
        store.to_str().unwrap(),
        "--point",
        "1e200,0.5",
    ]);
    assert!(!far.status.success());
    let err = String::from_utf8_lossy(&far.stderr);
    assert!(err.contains("coordinate out of range"), "{err}");

    // range
    let out = stdout(&sqda(&[
        "range",
        "--store",
        store.to_str().unwrap(),
        "--point",
        "0.5,0.5",
        "--radius",
        "0.05",
    ]));
    assert!(out.contains("objects within 0.05"), "{out}");

    // simulate (small workload to stay fast)
    let out = stdout(&sqda(&[
        "simulate",
        "--store",
        store.to_str().unwrap(),
        "--k",
        "5",
        "--lambda",
        "5",
        "--queries",
        "10",
    ]));
    assert!(out.contains("mean response"), "{out}");
    assert!(out.contains("queries          : 10"), "{out}");

    // estimate
    let out = stdout(&sqda(&[
        "estimate",
        "--store",
        store.to_str().unwrap(),
        "--k",
        "5",
        "--lambda",
        "5",
    ]));
    assert!(out.contains("predicted response"), "{out}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bulk_build_and_all_algorithms() {
    let dir = workdir("bulk");
    let csv = dir.join("u.csv");
    let store = dir.join("store");
    stdout(&sqda(&[
        "generate",
        "--kind",
        "uniform",
        "--n",
        "2000",
        "--dim",
        "3",
        "--out",
        csv.to_str().unwrap(),
    ]));
    let out = stdout(&sqda(&[
        "build",
        "--input",
        csv.to_str().unwrap(),
        "--store",
        store.to_str().unwrap(),
        "--disks",
        "3",
        "--bulk",
        "--decluster",
        "rr",
        "--split",
        "quadratic",
    ]));
    assert!(out.contains("bulk-loaded"), "{out}");
    for algo in ["bbss", "fpss", "crss", "woptss"] {
        let out = stdout(&sqda(&[
            "query",
            "--store",
            store.to_str().unwrap(),
            "--point",
            "0.5,0.5,0.5",
            "--k",
            "3",
            "--algo",
            algo,
        ]));
        assert!(out.contains("found 3 neighbours"), "{algo}: {out}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn helpful_errors() {
    let o = sqda(&["query", "--store", "/nonexistent-sqda-store"]);
    assert!(!o.status.success());
    let o = sqda(&["frobnicate"]);
    assert!(!o.status.success());
    let o = sqda(&[
        "generate",
        "--kind",
        "uniform",
        "--n",
        "10",
        "--out",
        "/tmp/x.csv",
        "--bogus",
        "1",
    ]);
    assert!(!o.status.success());
    let help = sqda(&["help"]);
    let help = String::from_utf8_lossy(&help.stdout);
    assert!(help.contains("USAGE"));
    // The help names every verb the server's `try_respond` answers.
    let serve = include_str!("../src/serve.rs");
    let respond = &serve[serve.find("fn try_respond").unwrap()..];
    let respond = &respond[..respond.find("\n}\n").unwrap()];
    let verbs: Vec<&str> = respond
        .split("Some(\"")
        .skip(1)
        .filter_map(|arm| arm.split_once("\") =>").map(|(verb, _)| verb))
        .collect();
    assert!(verbs.len() >= 9, "{verbs:?}");
    for verb in verbs {
        assert!(help.contains(&format!("{verb} ")), "help omits {verb}");
    }

    // A point of the wrong dimensionality is refused with both
    // dimensions named, by every command that searches, never a panic.
    let dir = workdir("wrong-dim");
    let (csv, store) = (dir.join("points.csv"), dir.join("store"));
    let csv = csv.to_str().unwrap();
    let store = store.to_str().unwrap();
    stdout(&sqda(&[
        "generate", "--kind", "uniform", "--n", "300", "--out", csv,
    ]));
    stdout(&sqda(&[
        "build", "--input", csv, "--store", store, "--disks", "4",
    ]));
    for point in ["0.5,0.5,0.5", "0.5"] {
        let dim = point.split(',').count();
        for args in [
            vec!["query", "--store", store, "--point", point],
            vec![
                "range", "--store", store, "--point", point, "--radius", "0.1",
            ],
            vec!["explain", "--store", store, "--point", point],
        ] {
            let o = sqda(&args);
            assert!(!o.status.success(), "{args:?}");
            let err = String::from_utf8_lossy(&o.stderr);
            assert!(
                err.contains(&format!("query dim {dim} but tree dim 2")),
                "{args:?}: {err}"
            );
            assert!(!err.contains("panicked"), "{args:?}: {err}");
        }
    }

    // A number that parses but means nothing is refused with the flag
    // named, never a panic (exit 101) or a silently wrong run.
    let p = ["--point", "0.5,0.5"];
    for (flag, value, command, extra) in [
        ("lambda", "0", "simulate", &[][..]),
        ("lambda", "NaN", "simulate", &[]),
        ("k", "0", "simulate", &[]),
        ("k", "0", "query", &p),
        ("k", "0", "explain", &p),
        ("lambda", "-1", "estimate", &[]),
        ("lambda", "NaN", "estimate", &[]),
        ("lambda", "NaN", "explain", &p),
        ("radius", "-1", "range", &p),
        ("radius", "NaN", "range", &p),
        ("slow-query-ms", "NaN", "serve", &["--port", "0"]),
        ("slow-query-ms", "-1", "serve", &["--port", "0"]),
    ] {
        let flag = format!("--{flag}");
        let mut args = vec![command, "--store", store, &flag, value];
        args.extend(extra);
        let o = sqda(&args);
        assert_eq!(o.status.code(), Some(1), "{args:?}");
        let err = String::from_utf8_lossy(&o.stderr);
        assert!(
            err.contains(&format!("error: bad value for {flag}")),
            "{args:?}: {err}"
        );
        assert!(!err.contains("panicked"), "{args:?}: {err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn external_build_names_the_bad_csv_row() {
    // A row that does not parse and a row that is too short, both in
    // the middle of an input big enough to spill: the build fails with
    // the file and the 1-based line, not with a bare count mismatch.
    for (name, bad_row, want) in [
        ("malformed", "0.25,oops", "\"oops\" is not a number"),
        ("short", "0.25", "1 fields, but the first row has 2"),
    ] {
        let dir = workdir(name);
        let csv = dir.join("points.csv");
        let mut rows: Vec<String> = (0..600)
            .map(|i| format!("{},{}", (i * 37 % 601) as f64 / 601.0, i as f64 / 600.0))
            .collect();
        rows[300] = bad_row.to_string();
        std::fs::write(&csv, rows.join("\n") + "\n").unwrap();
        let o = sqda(&[
            "build",
            "--input",
            csv.to_str().unwrap(),
            "--store",
            dir.join("store").to_str().unwrap(),
            "--external",
            "--page-size",
            "1024",
            "--run-capacity",
            "100",
        ]);
        assert!(!o.status.success(), "{name}: build succeeded");
        let err = String::from_utf8_lossy(&o.stderr);
        assert!(err.contains("points.csv:301:"), "{name}: {err}");
        assert!(err.contains(want), "{name}: {err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn failed_build_leaves_nothing_to_trip_over() {
    // A bad row deep enough that runs have spilled and the store's files
    // exist: the build must name the row, take back everything it made —
    // and only that — and the corrected input must then build into the
    // same `--store`. With and without `--external` alike.
    let dir = workdir("failed-build");
    let csv = dir.join("points.csv");
    let mut rows: Vec<String> = (0..600)
        .map(|i| format!("{},{}", (i * 37 % 601) as f64 / 601.0, i as f64 / 600.0))
        .collect();
    let good = rows.join("\n") + "\n";
    rows[450] = "0.25,abc".to_string();
    let bad = rows.join("\n") + "\n";
    for (name, mode) in [
        ("external", &["--external", "--run-capacity", "100"][..]),
        ("bulk", &["--bulk"][..]),
    ] {
        for pre_existing in [false, true] {
            let store = dir.join(format!("store-{name}-{pre_existing}"));
            if pre_existing {
                std::fs::create_dir_all(&store).unwrap();
                std::fs::write(store.join("notes.txt"), "mine").unwrap();
            }
            let build = |input: &str| {
                std::fs::write(&csv, input).unwrap();
                let mut args = vec!["build", "--input", csv.to_str().unwrap(), "--store"];
                args.extend([store.to_str().unwrap(), "--page-size", "1024"]);
                args.extend(mode);
                sqda(&args)
            };
            let o = build(&bad);
            let what = format!("{name}, pre-existing {pre_existing}");
            assert_eq!(o.status.code(), Some(1), "{what}");
            let err = String::from_utf8_lossy(&o.stderr);
            assert!(
                err.contains("points.csv:451: \"abc\" is not a number"),
                "{what}: {err}"
            );
            let left: Vec<_> = std::fs::read_dir(&store)
                .map(|d| d.map(|e| e.unwrap().file_name()).collect())
                .unwrap_or_default();
            if pre_existing {
                assert_eq!(left, ["notes.txt"], "{what}");
            } else {
                assert!(!store.exists(), "{what}: {left:?}");
            }
            let out = stdout(&build(&good));
            assert!(out.contains("600 objects"), "{what}: {out}");
            assert!(store.join("meta.sqda").exists(), "{what}");
            assert!(!store.join("scratch").exists(), "{what}");
            assert_eq!(pre_existing, store.join("notes.txt").exists(), "{what}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn non_finite_row_fails_an_incremental_build_cleanly() {
    // An incremental build (the default) refuses a `nan` row with a typed
    // error instead of panicking in a split, and so takes back the store
    // it started, as the bulk builders do.
    let dir = workdir("nan-row");
    let csv = dir.join("points.csv");
    let mut rows: Vec<String> = (0..3000)
        .map(|i| format!("{},{}", (i * 37 % 3001) as f64 / 3001.0, i as f64 / 3000.0))
        .collect();
    rows[1500] = "nan,0.5".to_string();
    std::fs::write(&csv, rows.join("\n") + "\n").unwrap();
    for mode in [&[][..], &["--bulk"][..], &["--external"][..]] {
        let store = dir.join("store");
        let mut args = vec!["build", "--input", csv.to_str().unwrap(), "--store"];
        args.extend([store.to_str().unwrap(), "--page-size", "1024"]);
        args.extend(mode);
        let o = sqda(&args);
        let err = String::from_utf8_lossy(&o.stderr);
        assert_eq!(o.status.code(), Some(1), "{mode:?}: {err}");
        assert!(err.contains("non-finite coordinate"), "{mode:?}: {err}");
        assert!(!err.contains("panicked"), "{mode:?}: {err}");
        assert!(
            !store.exists(),
            "{mode:?}: a half-written store was left behind"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn unbuildable_trees_are_typed_errors() {
    // Pages too small for a node, no disks, no page size, and a sidecar
    // describing a tree its pages cannot hold: each fails with exit 1 and
    // a message, never a panic, and a failed build leaves no store.
    let dir = workdir("unbuildable");
    let small = dir.join("small.csv");
    std::fs::write(&small, "0.1,0.2\n0.3,0.4\n0.5,0.6\n").unwrap();
    let wide = dir.join("wide.csv");
    let row = |i: usize| (0..300).map(move |d| format!("{}", (i + d) as f64 / 1000.0));
    let rows: Vec<String> = (0..5)
        .map(|i| row(i).collect::<Vec<_>>().join(","))
        .collect();
    std::fs::write(&wide, rows.join("\n") + "\n").unwrap();
    let store = dir.join("store");
    let (small, wide, s) = (
        small.to_str().unwrap(),
        wide.to_str().unwrap(),
        store.to_str().unwrap(),
    );
    let fits = "too small for";
    for (args, want) in [
        (&["--input", small, "--page-size", "64"][..], fits),
        (&["--input", small, "--page-size", "64", "--bulk"], fits),
        (&["--input", small, "--page-size", "64", "--external"], fits),
        (&["--input", wide], "too small for 300-d nodes"),
        (&["--input", wide, "--bulk"], fits),
        (&["--input", wide, "--external"], fits),
        (&["--input", small, "--page-size", "0"], fits),
        (&["--input", small, "--disks", "0"], "a store needs"),
    ] {
        let mut argv = vec!["build", "--store", s];
        argv.extend(args);
        let o = sqda(&argv);
        let err = String::from_utf8_lossy(&o.stderr);
        assert_eq!(o.status.code(), Some(1), "{argv:?}: {err}");
        assert!(err.contains(want), "{argv:?}: {err}");
        assert!(!err.contains("panicked"), "{argv:?}: {err}");
        assert!(!store.exists(), "{argv:?} left a store behind");
    }

    stdout(&sqda(&["build", "--input", small, "--store", s]));
    let meta = store.join("tree.meta");
    let good = std::fs::read_to_string(&meta).unwrap();
    for (from, to) in [("page_size=4096", "page_size=64"), ("dim=2", "dim=300")] {
        std::fs::write(&meta, good.replace(from, to)).unwrap();
        for command in [&["stats"][..], &["query", "--point", "0.5,0.5", "--k", "1"]] {
            let mut argv = vec![command[0], "--store", s];
            argv.extend(&command[1..]);
            let o = sqda(&argv);
            let err = String::from_utf8_lossy(&o.stderr);
            assert_eq!(o.status.code(), Some(1), "{to} {argv:?}: {err}");
            assert!(err.contains("too small for"), "{to} {argv:?}: {err}");
            assert!(!err.contains("panicked"), "{to} {argv:?}: {err}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
