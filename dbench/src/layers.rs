//! Replays of a workload's own inputs through single layers' public
//! functions: the compile pipeline, the packet codec, code packaging and
//! linking, and the byte-code machine on its own.

use crate::trace::Tracer;
use crate::util::median;
use std::hint::black_box;
use std::time::Instant;
use tyco_vm::codec::{self, Packet};
use tyco_vm::{LoopbackPort, Machine};

/// Parse and compile source text the bench generated.
pub fn compile(src: &str) -> tyco_vm::Program {
    tyco_vm::compile(&tyco_syntax::parse_core(src).expect("bench source parses"))
        .expect("bench source compiles")
}

/// The method table of `prog` that has an entry labelled `label`: an
/// object's table for a method name, a class group's for a class name.
pub fn class_table(prog: &tyco_vm::Program, label: &str) -> u32 {
    let t = prog
        .tables
        .iter()
        .position(|t| t.entries.iter().any(|(l, _)| prog.labels.get(*l) == label))
        .expect("table with the label");
    t as u32
}

/// Per-layer times (µs) of compiling every site of a workload once,
/// each the median over `reps` replays.
#[derive(Debug, Default, Clone, Copy)]
pub struct CompileTimes {
    pub parse_us: f64,
    pub check_us: f64,
    pub compile_us: f64,
    pub verify_us: f64,
}

/// Parse, type-check, compile and verify `sources` the way
/// `ditico::Program::compile` and the runtime's verifier do, timing each
/// layer separately under a `compile` span.
pub fn compile_layers(sources: &[String], reps: usize, tracer: &mut Tracer) -> CompileTimes {
    let mut parse = Vec::new();
    let mut check = Vec::new();
    let mut compile = Vec::new();
    let mut verify = Vec::new();
    for _ in 0..reps.max(1) {
        let mut t = [0f64; 4];
        let top = tracer.open("compile", None);
        for src in sources {
            let s0 = Instant::now();
            let ast = tyco_syntax::parse_core(src).expect("workload source parses");
            let s1 = Instant::now();
            let types = tyco_types::check(&ast).expect("workload source type-checks");
            let s2 = Instant::now();
            let code = tyco_vm::compile(&ast).expect("workload source compiles");
            let s3 = Instant::now();
            tyco_vm::verify_program(&code).expect("compiler output verifies");
            let s4 = Instant::now();
            black_box((&types, &code));
            tracer.record("syntax.parse", s0, s1, top, 0);
            tracer.record("types.check", s1, s2, top, 0);
            tracer.record("vm.compile", s2, s3, top, 0);
            tracer.record("vm.verify", s3, s4, top, 0);
            t[0] += (s1 - s0).as_secs_f64() * 1e6;
            t[1] += (s2 - s1).as_secs_f64() * 1e6;
            t[2] += (s3 - s2).as_secs_f64() * 1e6;
            t[3] += (s4 - s3).as_secs_f64() * 1e6;
        }
        tracer.close(top);
        parse.push(t[0]);
        check.push(t[1]);
        compile.push(t[2]);
        verify.push(t[3]);
    }
    CompileTimes {
        parse_us: median(&parse),
        check_us: median(&check),
        compile_us: median(&compile),
        verify_us: median(&verify),
    }
}

/// Codec cost on a workload's packet shapes.
#[derive(Debug, Default, Clone, Copy)]
pub struct CodecTimes {
    pub encode_ns: f64,
    pub decode_ns: f64,
    pub bytes_per_pkt: f64,
}

/// Encode and decode `packets` `rounds` times each; ns per packet.
/// Decoding must give back the packet that was encoded.
pub fn codec_replay(packets: &[Packet], rounds: usize, tracer: &mut Tracer) -> CodecTimes {
    let encoded: Vec<_> = packets.iter().map(codec::encode).collect();
    for (p, b) in packets.iter().zip(&encoded) {
        let back = codec::decode(b.clone()).expect("workload packet decodes");
        assert_eq!(&back, p, "codec round trip changed a workload packet");
    }
    let bytes: usize = encoded.iter().map(|b| b.len()).sum();
    let n = (packets.len() * rounds.max(1)) as f64;
    let t0 = Instant::now();
    for _ in 0..rounds.max(1) {
        for p in packets {
            black_box(codec::encode(black_box(p)));
        }
    }
    let t1 = Instant::now();
    for _ in 0..rounds.max(1) {
        for b in &encoded {
            black_box(codec::decode(black_box(b.clone())).expect("decodes"));
        }
    }
    let t2 = Instant::now();
    tracer.record("codec.encode", t0, t1, None, 0);
    tracer.record("codec.decode", t1, t2, None, 0);
    CodecTimes {
        encode_ns: (t1 - t0).as_nanos() as f64 / n,
        decode_ns: (t2 - t1).as_nanos() as f64 / n,
        bytes_per_pkt: bytes as f64 / packets.len().max(1) as f64,
    }
}

/// Time to package the class group that defines `class` in `server`'s
/// code (`tyco_vm::wire::pack`) and to verify and link that package into
/// `client`'s code (`tyco_vm::wire::link`), in µs, medians over `reps`.
pub fn wire_replay(
    server: &tyco_vm::Program,
    class: &str,
    client: &tyco_vm::Program,
    reps: usize,
    tracer: &mut Tracer,
) -> (f64, f64) {
    let table = class_table(server, class);
    let mut pack = Vec::new();
    let mut link = Vec::new();
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let packed = tyco_vm::wire::pack(server, &[table]);
        let t1 = Instant::now();
        let mut into = client.clone();
        let t2 = Instant::now();
        tyco_vm::wire::link(&mut into, &packed.code).expect("packed class links");
        let t3 = Instant::now();
        black_box(&into);
        tracer.record("wire.pack", t0, t1, None, 0);
        tracer.record("wire.link", t2, t3, None, 0);
        pack.push((t1 - t0).as_secs_f64() * 1e6);
        link.push((t3 - t2).as_secs_f64() * 1e6);
    }
    (median(&pack), median(&link))
}

/// Run a single-site kernel on a standalone machine to quiescence;
/// returns (instructions, seconds, output lines).
pub fn vm_kernel(src: &str, tracer: &mut Tracer) -> (u64, f64, Vec<String>) {
    let mut m = Machine::new(compile(src), LoopbackPort::new("main"));
    let t0 = Instant::now();
    m.run_to_quiescence(u64::MAX).expect("kernel runs");
    let t1 = Instant::now();
    tracer.record("vm.kernel", t0, t1, None, 0);
    (m.stats.instrs, (t1 - t0).as_secs_f64(), m.io.clone())
}
