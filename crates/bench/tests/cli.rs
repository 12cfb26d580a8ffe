//! End-to-end tests of the `rsn-tool` command-line interface.

use std::process::Command;

fn rsn_tool() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rsn_tool"))
}

fn demo_path() -> &'static str {
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/networks/soc_demo.rsn")
}

#[test]
fn stats_reports_network_figures() {
    let out = rsn_tool().args(["stats", demo_path()]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("segments:    10"), "{text}");
    assert!(text.contains("muxes:       4"), "{text}");
    assert!(text.contains("instruments: 7"), "{text}");
}

#[test]
fn tree_renders_the_decomposition() {
    let out = rsn_tool().args(["tree", demo_path()]).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("P (closed by core0.mux)"), "{text}");
    assert!(text.contains("`-- "), "{text}");
}

#[test]
fn analyze_ranks_primitives() {
    let out = rsn_tool().args(["analyze", demo_path(), "--seed", "7"]).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("total single-fault damage:"), "{text}");
    assert!(text.contains("primitive"), "{text}");
}

#[test]
fn harden_with_greedy_prints_constrained_solutions() {
    let out = rsn_tool()
        .args(["harden", demo_path(), "--solver", "greedy", "--kind-weights"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("initial assessment"), "{text}");
    assert!(text.contains("minimize cost, damage <= 10%"), "{text}");
    assert!(text.contains("minimize damage, cost <= 10%"), "{text}");
}

#[test]
fn harden_with_exact_solver_works_on_small_networks() {
    let out = rsn_tool().args(["harden", demo_path(), "--solver", "exact"]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn bench_runs_a_registered_design() {
    let out = rsn_tool().args(["bench", "TreeFlat", "--solver", "greedy"]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("initial assessment"), "{text}");
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = rsn_tool().args(["frobnicate", "x"]).output().unwrap();
    assert!(!out.status.success());
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(text.contains("usage:"), "{text}");
}

#[test]
fn unknown_flag_fails_with_usage() {
    let out = rsn_tool().args(["stats", demo_path(), "--frobnicate"]).output().unwrap();
    assert!(!out.status.success());
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(text.contains("unknown flag"), "{text}");
    assert!(text.contains("usage:"), "{text}");
}

#[test]
fn version_flag_prints_the_version() {
    for flag in ["--version", "-V"] {
        let out = rsn_tool().arg(flag).output().unwrap();
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.starts_with("rsn-tool "), "{text}");
        assert!(text.contains(env!("CARGO_PKG_VERSION")), "{text}");
    }
}

#[test]
fn submit_without_addr_is_a_clean_error() {
    let out = rsn_tool().args(["submit", demo_path()]).output().unwrap();
    assert!(!out.status.success());
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(text.contains("--addr"), "{text}");
}

#[test]
fn submit_against_a_dead_daemon_is_a_clean_error() {
    // Bind-then-drop guarantees a port nothing is listening on.
    let addr = {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        listener.local_addr().unwrap().to_string()
    };
    let out = rsn_tool().args(["submit", demo_path(), "--addr", &addr]).output().unwrap();
    assert!(!out.status.success());
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(text.contains("io error talking to rsnd"), "{text}");
}

#[test]
fn serve_and_submit_round_trip_over_loopback() {
    use rsn_serve::{Server, ServerConfig};
    let server = Server::bind(ServerConfig::default()).unwrap();
    let addr = server.local_addr().to_string();
    let handle = server.shutdown_handle();
    let thread = std::thread::spawn(move || server.run());

    let out = rsn_tool()
        .args(["submit", demo_path(), "--addr", &addr, "--endpoint", "analyze", "--seed", "7"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("\"total_damage\""), "{text}");
    assert!(text.contains("\"ranked\""), "{text}");

    let out = rsn_tool()
        .args([
            "submit",
            demo_path(),
            "--addr",
            &addr,
            "--endpoint",
            "harden",
            "--solver",
            "greedy",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("\"solutions\""), "{text}");
    assert!(text.contains("\"solver\":\"greedy\""), "{text}");

    handle.shutdown();
    thread.join().unwrap().unwrap();
}

#[test]
fn missing_file_is_a_clean_error() {
    let out = rsn_tool().args(["stats", "/nonexistent.rsn"]).output().unwrap();
    assert!(!out.status.success());
    let text = String::from_utf8_lossy(&out.stderr);
    assert!(text.contains("reading"), "{text}");
}

#[test]
fn fig1_network_parses_and_analyzes() {
    let fig1 = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/networks/fig1.rsn");
    let out = rsn_tool().args(["analyze", fig1, "--kind-weights"]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
}

#[test]
fn icl_files_load_via_graph_recognition() {
    let icl = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/networks/sib_chain.icl");
    let out = rsn_tool().args(["stats", icl]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("segments:    4"), "{text}");
    assert!(text.contains("muxes:       2"), "{text}");
    let out =
        rsn_tool().args(["harden", icl, "--solver", "exact", "--kind-weights"]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
}

/// A non-series-parallel ICL network: register `b` feeds both the `M1`
/// group and, past it, register `c`, so no SP decomposition exists.
const BRIDGE_ICL: &str = "Module bridge {
  ScanInPort SI;
  ScanOutPort SO { Source d; }
  DataInPort s1;
  DataInPort s2;
  ScanRegister a[3:0] { ScanInSource SI; Attribute instrument = \"sensor\"; }
  ScanRegister b[3:0] { ScanInSource SI; Attribute instrument = \"bist\"; }
  ScanMux M1 SelectedBy s1 {
    1'b0 : a;
    1'b1 : b;
  }
  ScanRegister c[3:0] { ScanInSource b; Attribute instrument = \"debug\"; }
  ScanMux M2 SelectedBy s2 {
    1'b0 : M1;
    1'b1 : c;
  }
  ScanRegister d[3:0] { ScanInSource M2; Attribute instrument = \"generic\"; }
}
";

/// Writes `text` to a fresh file `name` in a directory of its own.
fn scratch_file(dir: &str, name: &str, text: &[u8]) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(dir);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, text).unwrap();
    path
}

#[test]
fn subcommands_without_a_tree_accept_non_sp_icl_networks() {
    let path = scratch_file("rsn_tool_bridge_test", "bridge.icl", BRIDGE_ICL.as_bytes());
    let icl = path.to_str().unwrap();
    let out = rsn_tool().args(["stats", icl]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("segments:    4"), "{text}");
    // The graph-exact campaign is the check that exists for such networks.
    let out = rsn_tool().args(["validate", icl]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    // The tree analysis still needs a decomposition.
    let out = rsn_tool().args(["analyze", icl]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("series-parallel"));
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

/// `rsn_tool gen deep-sib --segments 20000 --seed 2022`: a 10,000-level
/// SIB tower whose decomposition tree is lowered without call-stack
/// recursion. Its `tree` rendering grows with the square of the depth
/// (gigabytes), so it is discarded.
#[test]
fn a_twenty_thousand_segment_sib_tower_loads_renders_and_analyzes() {
    let gen = rsn_tool()
        .args(["gen", "deep-sib", "--segments", "20000", "--seed", "2022"])
        .output()
        .unwrap();
    assert!(gen.status.success(), "{}", String::from_utf8_lossy(&gen.stderr));
    let path = scratch_file("rsn_tool_tower_test", "deep10000.rsn", &gen.stdout);
    let tower = path.to_str().unwrap();
    let out = rsn_tool().args(["stats", tower]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("segments:    20001"));
    let status =
        rsn_tool().args(["tree", tower]).stdout(std::process::Stdio::null()).status().unwrap();
    assert!(status.success(), "tree: {status}");
    let out = rsn_tool().args(["analyze", tower]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("total single-fault damage:"));
    std::fs::remove_dir_all(path.parent().unwrap()).ok();
}

#[test]
fn diagnose_identifies_an_injected_fault() {
    let out = rsn_tool().args(["diagnose", demo_path(), "--fault", "core0.cell"]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("SegmentBroken at core0.cell"), "{text}");
}

#[test]
fn diagnose_supports_stuck_mux_faults() {
    let out =
        rsn_tool().args(["diagnose", demo_path(), "--fault", "trace_sel:0"]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("diagnosis"), "{text}");
}

#[test]
fn export_icl_roundtrips_through_import() {
    let out = rsn_tool().args(["export-icl", demo_path()]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let icl = String::from_utf8_lossy(&out.stdout);
    let net = rsn_model::icl::import_icl(&icl).unwrap();
    assert_eq!(net.stats().segments, 10);
    assert_eq!(net.stats().muxes, 4);
}

#[test]
fn diagnose_rejects_unknown_nodes() {
    let out = rsn_tool().args(["diagnose", demo_path(), "--fault", "ghost"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("ghost"));
}

#[test]
fn gen_emits_a_parseable_giant_network_of_the_requested_size() {
    for shape in ["deep-sib", "rings", "chiplets"] {
        let out =
            rsn_tool().args(["gen", shape, "--segments", "2000", "--seed", "3"]).output().unwrap();
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let text = String::from_utf8_lossy(&out.stdout);
        let (_, s) = rsn_model::format::parse_network(&text).expect("generated text parses");
        assert!(s.count_segments() >= 2000, "{shape}: {} segments", s.count_segments());
        // Same seed, same bytes: the generator is replayable.
        let again =
            rsn_tool().args(["gen", shape, "--segments", "2000", "--seed", "3"]).output().unwrap();
        assert_eq!(out.stdout, again.stdout, "{shape} generation is deterministic");
    }
    let out = rsn_tool().args(["gen", "moebius", "--segments", "10"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("moebius"));
}

#[test]
fn sweep_runs_the_graph_kernel_on_generated_networks() {
    let dir = std::env::temp_dir().join("rsn_tool_sweep_test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("rings.rsn");
    let gen =
        rsn_tool().args(["gen", "rings", "--segments", "500", "--seed", "1"]).output().unwrap();
    assert!(gen.status.success());
    std::fs::write(&path, &gen.stdout).unwrap();
    let out = rsn_tool()
        .args(["sweep", path.to_str().unwrap(), "--threads", "2", "--json"])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("\"segments\":500"), "{text}");
    assert!(text.contains("\"total_damage\":"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn loadgen_spawns_a_daemon_and_reports_latency_percentiles() {
    let out = rsn_tool()
        .args([
            "loadgen",
            demo_path(),
            "--spawn",
            "--requests",
            "20",
            "--connections",
            "2",
            "--seed",
            "9",
            "--slo-ms",
            "30000",
        ])
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("throughput:"), "{text}");
    assert!(text.contains("p999"), "{text}");
    assert!(text.contains("MET"), "{text}");
}

#[test]
fn loadgen_without_addr_or_spawn_is_an_error() {
    let out = rsn_tool().args(["loadgen", demo_path(), "--requests", "5"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--addr"), "names the fix");
    // --chaos only makes sense for a daemon we spawn ourselves.
    let out = rsn_tool()
        .args(["loadgen", demo_path(), "--addr", "127.0.0.1:1", "--chaos", "panic=2"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--spawn"), "names the fix");
}

/// Byte pin of a pretty-printed `--json` report: the length and FNV-1a hash
/// of `rsn_tool validate p34392 --json` stdout, taken from the
/// `Content`-tree printer the streaming encoder replaced.
#[test]
fn pretty_json_validation_report_is_pinned() {
    let out = rsn_tool().args(["validate", "p34392", "--json"]).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let got = (out.stdout.len(), rsn_serve::cache::fnv1a(&out.stdout));
    assert_eq!(got, (350, 0x683e_d99f_e79e_6e54), "(length, fnv1a) = ({}, {:#018x})", got.0, got.1);
}
