//! The generated inputs: deterministic per seed, and every request any
//! workload can send at the default seed is answered with 200.

use diffusionpipe::http::{HttpServer, ServerConfig};
use diffusionpipe::serve::ServiceConfig;
use perfbench::client::Conn;
use perfbench::gen::{self, DEFAULT_SEED, WORKLOADS};

#[test]
fn same_seed_gives_byte_identical_requests() {
    for workload in WORKLOADS {
        let a = gen::requests(workload, 42, 3).unwrap().bytes();
        let b = gen::requests(workload, 42, 3).unwrap().bytes();
        assert_eq!(a, b, "{workload}");
        let c = gen::requests(workload, 43, 3).unwrap().bytes();
        assert_ne!(a, c, "{workload}: the seed must change the sequence");
    }
}

#[test]
fn populations_do_not_depend_on_the_seed() {
    for workload in ["cli_plan", "zipf_mix"] {
        let a = gen::requests(workload, 1, 1).unwrap().bodies;
        let b = gen::requests(workload, 2, 1).unwrap().bodies;
        assert_eq!(a, b, "{workload}");
    }
}

#[test]
fn zipf_blocks_draw_every_spec() {
    let seq = gen::zipf_sequence(DEFAULT_SEED, 1);
    let mut seen = [false; gen::ZIPF_POPULATION];
    for k in seq {
        seen[k] = true;
    }
    assert!(seen.iter().all(|&s| s));
}

#[test]
fn every_request_at_the_default_seed_is_answered_200() {
    let server = HttpServer::start(ServerConfig {
        service: ServiceConfig::with_workers(2),
        ..ServerConfig::default()
    })
    .unwrap();
    let addr = server.local_addr().to_string();
    let mut conn = Conn::connect(&addr).unwrap();
    for workload in WORKLOADS {
        let req = gen::requests(workload, DEFAULT_SEED, 1).unwrap();
        let path = if req.path == "stdin" {
            "/plan"
        } else {
            req.path
        };
        for body in &req.bodies {
            let (status, reply) = conn.request("POST", path, body.as_bytes()).unwrap();
            assert_eq!(
                status,
                200,
                "{workload} {path} {body}: {}",
                String::from_utf8_lossy(&reply)
            );
        }
    }
    // Fault parameters are the only inputs that change with the seed.
    for seed in 0..20 {
        for pair in gen::replay_pairs(seed) {
            let (status, reply) = conn
                .request("POST", "/simulate", pair.body.as_bytes())
                .unwrap();
            assert_eq!(
                status,
                200,
                "seed {seed}: {}",
                String::from_utf8_lossy(&reply)
            );
        }
    }
}
