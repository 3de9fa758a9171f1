//! `diva-serve`: run the scenario + privacy-accounting HTTP service.
//!
//! ```text
//! diva-serve [--addr HOST:PORT] [--port-file PATH] [--threads N]
//!            [--cache-mib N] [--job-capacity N] [--job-threshold CELLS]
//!            [--max-body-kib N]
//! ```
//!
//! The process serves until `POST /shutdown` arrives, then exits 0.
//! `--port-file` writes the actually-bound address (useful with port 0)
//! so scripts can wait for readiness and discover the ephemeral port.

use diva_serve::{Server, ServerConfig};

const USAGE: &str = "\
usage: diva-serve [options]

options:
  --addr HOST:PORT      bind address (default 127.0.0.1:8737; port 0 = ephemeral)
  --port-file PATH      write the bound address to PATH once listening
  --threads N           compute pool width (default: all cores; DIVA_NUM_THREADS)
  --cache-mib N         response memo-cache budget in MiB (default 64)
  --job-capacity N      queued background runs before 429 (default 32)
  --job-threshold N     estimated cells above which /run defers to a job (default 128)
  --max-body-kib N      largest accepted request body in KiB (default 1024)
  --help                print this help

endpoints: GET /scenarios, POST /run, POST /epsilon, POST /compare,
           GET /jobs/ID, GET /stats, POST /shutdown
";

fn parse_args() -> Result<(ServerConfig, Option<std::path::PathBuf>), String> {
    let mut config = ServerConfig {
        addr: "127.0.0.1:8737".to_string(),
        ..ServerConfig::default()
    };
    let mut port_file = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .ok_or_else(|| format!("{flag} needs a value\n\n{USAGE}"))
        };
        match arg.as_str() {
            "--addr" => config.addr = value("--addr")?,
            "--port-file" => port_file = Some(std::path::PathBuf::from(value("--port-file")?)),
            "--threads" => {
                let n: usize = parse_num(&value("--threads")?, "--threads")?;
                if n == 0 {
                    return Err("--threads wants at least 1".to_string());
                }
                config.backend = diva_tensor::Backend::with_threads(n);
            }
            "--cache-mib" => {
                config.cache_bytes =
                    parse_num::<usize>(&value("--cache-mib")?, "--cache-mib")? << 20;
            }
            "--job-capacity" => {
                config.job_capacity = parse_num(&value("--job-capacity")?, "--job-capacity")?;
            }
            "--job-threshold" => {
                config.job_cell_threshold =
                    parse_num(&value("--job-threshold")?, "--job-threshold")?;
            }
            "--max-body-kib" => {
                config.max_body_bytes =
                    parse_num::<usize>(&value("--max-body-kib")?, "--max-body-kib")? << 10;
            }
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?}\n\n{USAGE}")),
        }
    }
    Ok((config, port_file))
}

fn parse_num<T: std::str::FromStr>(raw: &str, flag: &str) -> Result<T, String> {
    raw.parse()
        .map_err(|_| format!("{flag} wants a number, got {raw:?}"))
}

fn main() {
    let (config, port_file) = match parse_args() {
        Ok(parsed) => parsed,
        Err(message) => {
            eprintln!("diva-serve: {message}");
            std::process::exit(2);
        }
    };
    let server = match Server::start(config) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("diva-serve: bind failed: {e}");
            std::process::exit(1);
        }
    };
    println!("diva-serve listening on {}", server.addr());
    if let Some(path) = port_file {
        if let Err(e) = std::fs::write(&path, format!("{}\n", server.addr())) {
            eprintln!("diva-serve: writing {}: {e}", path.display());
            server.shutdown();
            server.wait();
            std::process::exit(1);
        }
    }
    server.wait();
    println!("diva-serve: shut down cleanly");
}
