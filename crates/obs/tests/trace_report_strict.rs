//! `trace_report --strict` as CI runs it: exit 0 on a sound journal, 1 on
//! a journal that breaks one integrity rule, 2 on one it cannot read.

use std::process::Command;

/// One spanned line of trace 1; `span` and `parent` are its low id bytes.
fn line(t: u64, cat: &str, ev: &str, span: u8, parent: Option<u8>) -> String {
    let parent = parent.map_or(String::new(), |p| format!(",\"parent\":\"{p:016x}\""));
    format!(
        "{{\"t\":{t},\"day\":0,\"cat\":\"{cat}\",\"ev\":\"{ev}\",\
         \"trace\":\"0000000000000001\",\"span\":\"{span:016x}\"{parent},\"detections\":0}}\n"
    )
}

const CHURN_AT_5: &str = "{\"t\":5,\"day\":0,\"cat\":\"churn\",\"ev\":\"churn_down\",\"node\":1}\n";

/// `trace_report [--strict]` on a complete query -> match -> download ->
/// verdict chain (t = 10..50) with `extra` inserted before its line `at`
/// (0-based); the exit code and the strict failures it printed.
fn report(case: &str, at: usize, extra: &str, strict: bool) -> (i32, Vec<String>) {
    let mut lines = vec![
        line(10, "query", "query_issued", 0x10, None),
        line(20, "query", "query_matched", 0x11, Some(0x10)),
        line(30, "download", "download_start", 0x12, Some(0x11)),
        line(40, "download", "download_complete", 0x13, Some(0x12)),
        line(50, "scan", "scan_verdict", 0x14, Some(0x13)),
    ];
    lines.insert(at, extra.to_string());
    let name = format!("p2pmal-trace-report-{}-{case}.jsonl", std::process::id());
    let path = std::env::temp_dir().join(name);
    if case != "missing" {
        std::fs::write(&path, lines.concat()).unwrap();
    }
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_trace_report"));
    if strict {
        cmd.arg("--strict");
    }
    let out = cmd.arg(&path).output().expect("trace_report runs");
    let _ = std::fs::remove_file(&path);
    let failures = String::from_utf8_lossy(&out.stderr)
        .lines()
        .map(|l| {
            l.split_once("strict check failed: ")
                .map_or(l, |(_, f)| f)
                .to_string()
        })
        .collect();
    (out.status.code().expect("exited"), failures)
}

#[test]
fn a_sound_journal_exits_0_and_a_missing_one_2() {
    assert_eq!(report("sound", 5, "", true), (0, vec![]));
    let (code, stderr) = report("missing", 5, "", true);
    assert_eq!(code, 2);
    assert!(stderr[0].contains("cannot read"), "{stderr:?}");
}

/// Each journal breaks one rule with one line, and the report names it.
#[test]
fn each_broken_rule_exits_1() {
    let cases = [
        (
            "duplicate-span",
            5,
            line(60, "scan", "infection", 0x13, Some(0x14)),
            vec!["1 duplicate span ids (first: line 6: span 0000000000000013 emitted again)"],
        ),
        (
            "unknown-cat",
            5,
            line(60, "bogus", "infection", 0x15, Some(0x14)),
            vec!["1 unknown categories (first: line 6: unknown `cat` \"bogus\")"],
        ),
        // Spanless, so on no edge.
        (
            "t-backwards",
            5,
            CHURN_AT_5.to_string(),
            vec!["1 sim-time reversals (first: line 6: sim time 5 after 50)"],
        ),
        // Its parent is the `query_matched` one line below, at the same
        // sim time: the forest resolves it, file order does not.
        (
            "parent-later",
            1,
            line(20, "download", "download_retry", 0x15, Some(0x11)),
            vec!["1 parents not emitted earlier (first: line 2: parent 0000000000000011 not emitted earlier)"],
        ),
        (
            "self-parent",
            5,
            line(60, "download", "download_retry", 0x15, Some(0x15)),
            vec!["1 parents not emitted earlier (first: line 6: parent 0000000000000015 not emitted earlier)"],
        ),
        // Emitted nowhere: an orphan span as well.
        (
            "unresolved-parent",
            5,
            line(60, "download", "download_retry", 0x15, Some(0xff)),
            vec![
                "1 orphan spans (first: line 6, download_retry under 00000000000000ff)",
                "1 parents not emitted earlier (first: line 6: parent 00000000000000ff not emitted earlier)",
            ],
        ),
    ];
    for (case, at, bad, why) in cases {
        assert_eq!(
            report(case, at, &bad, false).0,
            0,
            "{case}: only --strict fails"
        );
        assert_eq!(
            report(case, at, &bad, true),
            (1, why.iter().map(|w| w.to_string()).collect()),
            "{case}"
        );
    }
}
