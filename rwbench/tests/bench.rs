//! Smoke runs of the built benchmark against `BENCHMARK.json`: every
//! declared workload completes with no failed request, the printed
//! metric names equal the declared ones, and the durability check
//! catches a server that lost its log.

use std::path::{Path, PathBuf};
use std::process::Command;

/// A parsed JSON value (just enough JSON for these files).
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            b: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.b.len(), "trailing bytes after JSON value");
        v
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(kv) => kv
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("no key {key:?}")),
            other => panic!("not an object: {other:?}"),
        }
    }

    fn keys(&self) -> Vec<String> {
        match self {
            Json::Obj(kv) => kv.iter().map(|(k, _)| k.clone()).collect(),
            other => panic!("not an object: {other:?}"),
        }
    }

    fn names(&self) -> Vec<String> {
        match self {
            Json::Arr(items) => items
                .iter()
                .map(|i| i.get("name").str().to_string())
                .collect(),
            other => panic!("not an array: {other:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn units(&self) -> Vec<(String, String)> {
        match self {
            Json::Arr(items) => items
                .iter()
                .map(|i| {
                    (
                        i.get("name").str().to_string(),
                        i.get("unit").str().to_string(),
                    )
                })
                .collect(),
            other => panic!("not an array: {other:?}"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("not a number: {other:?}"),
        }
    }
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.b.get(self.i),
            Some(&c),
            "expected {:?} at {}",
            c as char,
            self.i
        );
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.b[self.i] {
            b'{' => {
                self.i += 1;
                let mut kv = Vec::new();
                self.ws();
                if self.b[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(kv);
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.value() else {
                        panic!("object key is not a string")
                    };
                    self.eat(b':');
                    kv.push((k, self.value()));
                    self.ws();
                    self.i += 1;
                    match self.b[self.i - 1] {
                        b',' => continue,
                        b'}' => return Json::Obj(kv),
                        c => panic!("unexpected {:?} in object", c as char),
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.b[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(items);
                }
                loop {
                    items.push(self.value());
                    self.ws();
                    self.i += 1;
                    match self.b[self.i - 1] {
                        b',' => continue,
                        b']' => return Json::Arr(items),
                        c => panic!("unexpected {:?} in array", c as char),
                    }
                }
            }
            b'"' => {
                self.i += 1;
                let mut s = String::new();
                loop {
                    let c = self.b[self.i];
                    self.i += 1;
                    match c {
                        b'"' => return Json::Str(s),
                        b'\\' => {
                            let e = self.b[self.i];
                            self.i += 1;
                            match e {
                                b'u' => {
                                    let hex =
                                        std::str::from_utf8(&self.b[self.i..self.i + 4]).unwrap();
                                    s.push(
                                        char::from_u32(u32::from_str_radix(hex, 16).unwrap())
                                            .unwrap(),
                                    );
                                    self.i += 4;
                                }
                                b'n' => s.push('\n'),
                                b't' => s.push('\t'),
                                other => s.push(other as char),
                            }
                        }
                        _ => {
                            // Copy the whole UTF-8 sequence.
                            let start = self.i - 1;
                            while self.i < self.b.len() && (self.b[self.i] & 0xc0) == 0x80 {
                                self.i += 1;
                            }
                            s.push_str(std::str::from_utf8(&self.b[start..self.i]).unwrap());
                        }
                    }
                }
            }
            b't' => {
                self.i += 4;
                Json::Bool(true)
            }
            b'f' => {
                self.i += 5;
                Json::Bool(false)
            }
            b'n' => {
                self.i += 4;
                Json::Null
            }
            _ => {
                let start = self.i;
                while self.i < self.b.len() && b"+-0123456789.eE".contains(&self.b[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.b[start..self.i]).unwrap();
                Json::Num(
                    text.parse()
                        .unwrap_or_else(|_| panic!("bad number {text:?}")),
                )
            }
        }
    }
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives inside the repository")
        .to_path_buf()
}

fn declared() -> Json {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json is readable");
    Json::parse(&text)
}

/// Runs the benchmark and returns its parsed last stdout line.
fn run(args: &[&str]) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_rwbench"))
        .args(args)
        .current_dir(repo_root())
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "benchmark {args:?} failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("benchmark printed a result");
    Json::parse(last)
}

fn smoke(workload: &str, trace: &str) -> Json {
    run(&[
        "--workload",
        workload,
        "--seed",
        "7",
        "--seconds",
        "1",
        "--trace",
        trace,
    ])
}

fn assert_clean(res: &Json, workload: &str) {
    assert_eq!(res.get("correct"), &Json::Bool(true), "{workload}: {res:?}");
    assert_eq!(
        res.get("failed").num(),
        0.0,
        "{workload}: failed_frac must be 0"
    );
    assert!(
        res.get("attempted").num() >= 1.0,
        "{workload}: nothing attempted"
    );
}

#[test]
fn every_declared_workload_runs_clean_and_prints_the_declared_metrics() {
    let decl = declared();
    let expected = decl.get("end_to_end").names();
    let workloads = decl.get("workloads").names();
    assert!(workloads.len() >= 2);
    for w in &workloads {
        let res = smoke(w, "0");
        assert_clean(&res, w);
        let metrics = res.get("metrics");
        assert_eq!(metrics.keys(), expected, "{w}: printed end-to-end metrics");
        for (name, unit) in decl.get("end_to_end").units() {
            let m = metrics.get(&name);
            assert!(m.get("value").num() > 0.0, "{w}: {name} is not positive");
            assert_eq!(m.get("unit").str(), unit, "{w}: unit of {name}");
        }
    }
}

#[test]
fn traced_run_prints_the_declared_per_layer_metrics() {
    let decl = declared();
    let expected = decl.get("per_layer").names();
    for w in ["write-scan", "sim-elision"] {
        let res = smoke(w, "1");
        assert_clean(&res, w);
        let metrics = res.get("metrics");
        assert_eq!(metrics.keys(), expected, "{w}: printed per-layer metrics");
        for (name, unit) in decl.get("per_layer").units() {
            assert_eq!(
                metrics.get(&name).get("unit").str(),
                unit,
                "{w}: unit of {name}"
            );
        }
    }
}

#[test]
fn dropped_durable_workload_still_runs_clean() {
    let res = smoke("durable-put", "0");
    assert_clean(&res, "durable-put");
}

#[test]
fn durability_check_catches_a_lost_log() {
    let res = run(&[
        "--workload",
        "durable-put",
        "--seed",
        "7",
        "--seconds",
        "1",
        "--trace",
        "0",
        "--fault",
        "lose-wal",
    ]);
    assert_eq!(res.get("correct"), &Json::Bool(false));
    assert!(
        res.get("failed").num() > 0.0,
        "a lost log must count as failures"
    );
}

#[test]
fn bad_arguments_exit_2_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_rwbench"))
        .args(["--workload", "no-such-workload"])
        .current_dir(repo_root())
        .output()
        .expect("benchmark runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}

#[test]
fn json_parser_reads_nested_values() {
    let v = Json::parse(r#"{"a": [1, 2.5e1, -3], "b": {"c": "x\"yA"}, "d": true, "e": null}"#);
    assert_eq!(
        v.get("a"),
        &Json::Arr(vec![Json::Num(1.0), Json::Num(25.0), Json::Num(-3.0)])
    );
    assert_eq!(v.get("b").get("c"), &Json::Str("x\"yA".into()));
    assert_eq!(v.get("d"), &Json::Bool(true));
    assert_eq!(v.get("e"), &Json::Null);
}
