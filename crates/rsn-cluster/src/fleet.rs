//! Worker-process lifecycle: spawning `rsnd` children on ephemeral ports,
//! adopting externally managed workers by address, SIGKILL ejection, and
//! respawn.
//!
//! A [`Fleet`] owns a fixed number of *slots*. Each slot holds one worker
//! *generation*: the current address, the child process (when the fleet
//! spawned it), and health-tracking state. Ejecting a slot kills its child;
//! respawning starts a fresh generation on a fresh ephemeral port. Slot
//! indices are stable across generations, so shard partitioning and
//! rendezvous routing address slots, not processes.
//!
//! Generations make the health protocol race-free: a probe failure observed
//! against generation `g` is ignored once the slot has moved on to `g + 1`,
//! so a slow probe of a dead worker can never eject its freshly respawned
//! successor.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::{Mutex, PoisonError};

/// How a fleet starts (and restarts) worker processes; absent for adopted
/// fleets, which cannot respawn.
#[derive(Clone, Debug)]
pub struct WorkerSpawn {
    /// Path of the worker binary (`rsnd` or a compatible daemon that prints
    /// the `rsnd listening on HOST:PORT` banner).
    pub bin: PathBuf,
    /// Extra arguments appended after `--addr 127.0.0.1:0`.
    pub args: Vec<String>,
}

impl WorkerSpawn {
    /// Launches one worker and waits for its listening banner.
    fn launch(&self) -> Result<(Child, String), String> {
        let mut child = Command::new(&self.bin)
            .arg("--addr")
            .arg("127.0.0.1:0")
            .args(&self.args)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawning {:?} failed: {e}", self.bin))?;
        let stdout = child.stdout.take().ok_or("worker stdout not captured")?;
        let mut banner = String::new();
        // The banner is the first stdout line; a worker that dies before
        // printing it yields EOF and an empty line.
        BufReader::new(stdout)
            .read_line(&mut banner)
            .map_err(|e| format!("reading worker banner failed: {e}"))?;
        match banner.trim_end().strip_prefix("rsnd listening on ") {
            Some(addr) if !addr.is_empty() => Ok((child, addr.to_string())),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                Err(format!("worker printed no listening banner (got {banner:?})"))
            }
        }
    }
}

/// One worker generation in a slot.
#[derive(Debug)]
pub struct Worker {
    /// Monotonic generation counter (unique per fleet).
    pub generation: u64,
    /// The worker's listening address.
    pub addr: String,
    /// Whether the worker is believed healthy.
    pub up: bool,
    /// Consecutive failed health probes (reset by any success).
    pub consecutive_failures: u32,
    /// Last scraped `rsnd_queue_depth`, for the fleet metrics view.
    pub queue_depth: u64,
    child: Option<Child>,
}

impl Worker {
    /// A slot holding a worker without a child process or a health record.
    fn slot(generation: u64, addr: String, up: bool) -> Mutex<Self> {
        Mutex::new(Self {
            generation,
            addr,
            up,
            consecutive_failures: 0,
            queue_depth: 0,
            child: None,
        })
    }
}

/// A snapshot row of one slot, for routing and metrics.
#[derive(Clone, Debug)]
pub struct WorkerStatus {
    /// Slot index.
    pub slot: usize,
    /// Current generation.
    pub generation: u64,
    /// Current address.
    pub addr: String,
    /// Believed-healthy flag.
    pub up: bool,
    /// Last scraped queue depth.
    pub queue_depth: u64,
}

/// A fixed set of worker slots, spawned or adopted.
#[derive(Debug)]
pub struct Fleet {
    slots: Vec<Mutex<Worker>>,
    spawn: Option<WorkerSpawn>,
    generations: Mutex<u64>,
}

impl Fleet {
    /// Spawns `n` workers from `spawn`. Workers that fail to start leave
    /// their slot *down* (the health loop keeps retrying) — a fleet where
    /// every spawn failed is still returned, and requests answer `503`
    /// until a worker comes up.
    #[must_use]
    pub fn spawn(spawn: WorkerSpawn, n: usize) -> Self {
        let fleet = Self {
            slots: (0..n).map(|_| Worker::slot(0, String::new(), false)).collect(),
            spawn: Some(spawn),
            generations: Mutex::new(0),
        };
        for slot in 0..n {
            let _ = fleet.respawn(slot);
        }
        fleet
    }

    /// Adopts externally managed workers at the given addresses. Adopted
    /// slots are probed and ejected like spawned ones but cannot respawn.
    #[must_use]
    pub fn adopt(addrs: Vec<String>) -> Self {
        Self {
            slots: addrs
                .into_iter()
                .enumerate()
                .map(|(i, addr)| Worker::slot(i as u64, addr, true))
                .collect(),
            spawn: None,
            generations: Mutex::new(u64::MAX / 2),
        }
    }

    /// Number of slots.
    #[must_use]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the fleet has no slots at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Whether this fleet can restart dead workers.
    #[must_use]
    pub fn can_respawn(&self) -> bool {
        self.spawn.is_some()
    }

    fn lock(&self, slot: usize) -> std::sync::MutexGuard<'_, Worker> {
        self.slots[slot].lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A point-in-time view of every slot.
    #[must_use]
    pub fn snapshot(&self) -> Vec<WorkerStatus> {
        (0..self.slots.len())
            .map(|i| {
                let w = self.lock(i);
                WorkerStatus {
                    slot: i,
                    generation: w.generation,
                    addr: w.addr.clone(),
                    up: w.up,
                    queue_depth: w.queue_depth,
                }
            })
            .collect()
    }

    /// The believed-healthy slots, in slot order.
    #[must_use]
    pub fn up_workers(&self) -> Vec<WorkerStatus> {
        self.snapshot().into_iter().filter(|w| w.up).collect()
    }

    /// SIGKILLs the slot's child (chaos `kill-worker`, or ejection of a
    /// wedged worker) and marks it down. No-op for adopted workers without
    /// a child handle.
    pub fn kill(&self, slot: usize) {
        let mut w = self.lock(slot);
        if let Some(mut child) = w.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        w.up = false;
    }

    /// Records a probe or dispatch failure observed against `generation`.
    /// Returns `true` when the failure pushed the worker past `threshold`
    /// consecutive failures and it was marked down (the caller ejects it).
    /// Failures against a superseded generation are ignored.
    pub fn record_failure(&self, slot: usize, generation: u64, threshold: u32) -> bool {
        let mut w = self.lock(slot);
        if w.generation != generation {
            return false;
        }
        w.consecutive_failures += 1;
        if w.up && w.consecutive_failures >= threshold {
            w.up = false;
            return true;
        }
        false
    }

    /// Records a successful probe of `generation` with the scraped queue
    /// depth, resetting the failure streak.
    pub fn record_success(&self, slot: usize, generation: u64, queue_depth: u64) {
        let mut w = self.lock(slot);
        if w.generation != generation {
            return;
        }
        w.consecutive_failures = 0;
        w.queue_depth = queue_depth;
        w.up = true;
    }

    /// Kills whatever occupies the slot and starts a fresh generation on a
    /// fresh ephemeral port. Returns the new worker's address.
    ///
    /// # Errors
    ///
    /// The spawn failure, or an explanation that this fleet only adopts.
    pub fn respawn(&self, slot: usize) -> Result<String, String> {
        let spawn = self.spawn.as_ref().ok_or("adopted workers cannot be respawned")?;
        self.kill(slot);
        let (child, addr) = spawn.launch()?;
        let generation = {
            let mut g = self.generations.lock().unwrap_or_else(PoisonError::into_inner);
            *g += 1;
            *g
        };
        let mut w = self.lock(slot);
        w.generation = generation;
        w.addr = addr.clone();
        w.up = true;
        w.consecutive_failures = 0;
        w.queue_depth = 0;
        w.child = Some(child);
        Ok(addr)
    }

    /// Kills every spawned child. Called on coordinator shutdown.
    pub fn shutdown(&self) {
        for slot in 0..self.slots.len() {
            self.kill(slot);
        }
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        self.shutdown();
    }
}
