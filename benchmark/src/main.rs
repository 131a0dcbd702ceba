mod agree;
mod cli;
mod gen;
mod harness;
mod host;
mod json;
mod probes;
mod spec;
mod stats;
mod trace;
mod wire;
mod workloads;

fn main() -> std::process::ExitCode {
    cli::main()
}
