//! `pimnet` — command-line front end for the PIMnet simulator.
//!
//! ```text
//! pimnet-cli collective --kind allreduce --kb 32 [--dpus 256] [--backend P]
//! pimnet-cli workload   --name CC [--backend P]
//! pimnet-cli suite                        # every workload x every backend
//! pimnet-cli schedule   --kind a2a --dpus 64 --elems 1024
//! pimnet-cli noc        --kind a2a --dpus 64 --elems 2048 [--jitter-us 40]
//!                       [--fault-seed 7] [--fault-config faults.cfg]
//! pimnet-cli faults     --kind allreduce --dpus 64 --elems 1024
//!                       [--fault-seed 7] [--fault-config faults.cfg]
//!                       [--ber 0.01] [--straggler-prob 0.2] [--dead 3,17]
//! ```

#![forbid(unsafe_code)]

use std::io::{ErrorKind, Write};
use std::process::ExitCode;

use commands::CliError;

mod args;
mod commands;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut out = std::io::stdout().lock();
    let result =
        commands::dispatch(&argv, &mut out).and_then(|()| out.flush().map_err(CliError::Output));
    match result {
        Ok(()) => ExitCode::SUCCESS,
        // The reader closed the pipe (`| head`): it wants no more output,
        // which is not a failure.
        Err(CliError::Output(e)) if e.kind() == ErrorKind::BrokenPipe => ExitCode::SUCCESS,
        Err(e @ CliError::Output(_)) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
        Err(e @ CliError::Message(_)) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{}", commands::USAGE);
            ExitCode::FAILURE
        }
    }
}
