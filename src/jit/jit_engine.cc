#include "jit/jit_engine.h"

#include <llvm/ExecutionEngine/Orc/CompileUtils.h>
#include <llvm/ExecutionEngine/Orc/LLJIT.h>
#include <llvm/IR/LegacyPassManager.h>
#include <llvm/Support/TargetSelect.h>
#include <llvm/Transforms/IPO/PassManagerBuilder.h>
#include <llvm/Transforms/InstCombine/InstCombine.h>
#include <llvm/Transforms/Scalar.h>
#include <llvm/Transforms/Utils.h>

#include <cstring>

#include "jit/runtime.h"
#include "util/fault.h"
#include "util/hash.h"
#include "util/spin_timer.h"

namespace poseidon::jit {

namespace {

/// Cached blob layout: header + raw object-file bytes. tail_index and the
/// handle-slot count are codegen outputs that must survive alongside the
/// machine code.
struct BlobHeader {
  uint32_t magic;
  int32_t tail_index;
  uint32_t num_handle_slots;
  uint32_t reserved;
};
constexpr uint32_t kBlobMagic = 0x504a4954;  // "PJIT"

void InitializeLlvmOnce() {
  static bool initialized = [] {
    llvm::InitializeNativeTarget();
    llvm::InitializeNativeTargetAsmPrinter();
    llvm::InitializeNativeTargetAsmParser();
    return true;
  }();
  (void)initialized;
}

/// Registers the AOT helper functions (jit/runtime.h) as absolute symbols
/// so generated code can call them without dynamic symbol export.
llvm::Error RegisterRuntimeSymbols(llvm::orc::LLJIT* jit,
                                   llvm::orc::JITDylib& jd) {
  llvm::orc::SymbolMap symbols;
  auto& es = jit->getExecutionSession();
  auto add = [&](const char* name, auto* fn) {
    symbols[es.intern(name)] = llvm::JITEvaluatedSymbol(
        llvm::pointerToJITTargetAddress(fn), llvm::JITSymbolFlags::Exported);
  };
  add("poseidon_node_ref", &poseidon_node_ref);
  add("poseidon_rel_ref", &poseidon_rel_ref);
  add("poseidon_get_prop", &poseidon_get_prop);
  add("poseidon_param", &poseidon_param);
  add("poseidon_compare", &poseidon_compare);
  add("poseidon_index_matches", &poseidon_index_matches);
  add("poseidon_index_match_at", &poseidon_index_match_at);
  add("poseidon_emit", &poseidon_emit);
  add("poseidon_touch", &poseidon_touch);
  add("poseidon_prefetch", &poseidon_prefetch);
  add("poseidon_expand_cached", &poseidon_expand_cached);
  add("poseidon_should_yield", &poseidon_should_yield);
  return jd.define(llvm::orc::absoluteSymbols(std::move(symbols)));
}

std::string LlvmErrToString(llvm::Error err) {
  std::string out;
  llvm::handleAllErrors(std::move(err), [&](const llvm::ErrorInfoBase& e) {
    out += e.message();
    out += "; ";
  });
  return out;
}

/// The paper's run-time optimization strategy: the explicit cascade
/// followed by the aggressive standard pipeline (-O3).
void OptimizeModule(llvm::Module* module) {
  llvm::legacy::FunctionPassManager fpm(module);
  fpm.add(llvm::createPromoteMemoryToRegisterPass());  // mem2reg
  fpm.add(llvm::createCFGSimplificationPass());
  fpm.add(llvm::createLoopUnrollPass());
  fpm.add(llvm::createDeadCodeEliminationPass());
  fpm.add(llvm::createInstructionCombiningPass());
  fpm.doInitialization();
  for (auto& f : *module) {
    if (!f.isDeclaration()) fpm.run(f);
  }
  fpm.doFinalization();

  llvm::legacy::PassManager mpm;
  llvm::PassManagerBuilder pmb;
  pmb.OptLevel = 3;
  pmb.populateModulePassManager(mpm);
  mpm.run(*module);
}

}  // namespace

JitEngine::~JitEngine() = default;

Result<std::unique_ptr<JitEngine>> JitEngine::Create(QueryCache* cache) {
  InitializeLlvmOnce();
  auto engine = std::unique_ptr<JitEngine>(new JitEngine());
  engine->cache_ = cache;
  auto jit = llvm::orc::LLJITBuilder().create();
  if (!jit) {
    return Status::Internal("LLJIT creation failed: " +
                            LlvmErrToString(jit.takeError()));
  }
  engine->jit_ = std::move(*jit);
  auto tmb = llvm::orc::JITTargetMachineBuilder::detectHost();
  if (!tmb) {
    return Status::Internal("host detection failed: " +
                            LlvmErrToString(tmb.takeError()));
  }
  auto tm = tmb->createTargetMachine();
  if (!tm) {
    return Status::Internal("target machine creation failed: " +
                            LlvmErrToString(tm.takeError()));
  }
  engine->tm_ = std::move(*tm);
  return engine;
}

uint64_t JitEngine::QueryIdFor(const query::Plan& plan,
                               const JitOptions& options) {
  return QueryIdFor(plan, options, kCodegenAbiVersion);
}

uint64_t JitEngine::QueryIdFor(const query::Plan& plan,
                               const JitOptions& options,
                               uint32_t abi_version) {
  uint64_t id = HashCombine(plan.signature_hash(), options.optimize ? 1 : 2);
  // Object code from another generator version may assume another header
  // layout or scan loop: the version keys the cache like the knobs below.
  id = HashCombine(id, abi_version);
  // The scan knobs are codegen inputs (they change the emitted loop), so
  // they participate in the cache key.
  id = HashCombine(id, options.scan.batch_size);
  id = HashCombine(id, options.scan.prefetch_distance);
  // So is the adjacency-cache fast path (dual Expand loop vs chain walk).
  id = HashCombine(id, options.adj_cache ? 1 : 2);
  return id;
}

bool JitEngine::TryGetMemoized(const query::Plan& plan,
                               const JitOptions& options,
                               CompiledQuery* out) {
  return MemoLookup(QueryIdFor(plan, options), out);
}

bool JitEngine::MemoLookup(uint64_t query_id, CompiledQuery* out) {
  std::lock_guard<std::mutex> lock(memo_mu_);
  auto it = memo_.find(query_id);
  if (it == memo_.end()) return false;
  *out = it->second;
  out->from_memo = true;
  out->codegen_ms = out->optimize_ms = out->compile_ms = 0;
  return true;
}

void JitEngine::MemoInsert(const CompiledQuery& compiled) {
  std::lock_guard<std::mutex> lock(memo_mu_);
  memo_[compiled.query_id] = compiled;
}

Result<CompiledQuery> JitEngine::Compile(const query::Plan& plan,
                                         const JitOptions& options) {
  POSEIDON_ASSIGN_OR_RETURN(PendingCompile pending,
                            BeginCompile(plan, options));
  return FinishCompile(std::move(pending));
}

Result<JitEngine::PendingCompile> JitEngine::BeginCompile(
    const query::Plan& plan, const JitOptions& options) {
  // Injectable compile failure (jit.compile): lets tests and benches prove
  // the query layer degrades to interpretation instead of failing the query
  // when codegen breaks (OOM in ORC, unsupported plan shape, ...).
  if (util::FaultRegistry::Instance().ShouldFail("jit.compile")) {
    return Status::Internal("JIT compilation failed: injected fault "
                            "(jit.compile)");
  }
  uint64_t query_id = QueryIdFor(plan, options);
  PendingCompile pending;
  pending.options = options;
  pending.result.query_id = query_id;

  // A memo hit takes only the memo lock, so hot queries never wait behind
  // another plan's compile.
  if (MemoLookup(query_id, &pending.result)) {
    pending.done = true;
    return pending;
  }
  std::lock_guard<std::mutex> compile_lock(compile_mu_);
  // A racer may have finished this query while we waited for the lock.
  if (MemoLookup(query_id, &pending.result)) {
    pending.done = true;
    return pending;
  }

  char name_buf[32];
  std::snprintf(name_buf, sizeof(name_buf), "q%016llx",
                static_cast<unsigned long long>(query_id));
  pending.fn_name = name_buf;

  // Each compiled query gets its own JITDylib so symbol names can never
  // collide across plans or cache generations.
  std::string dylib_name =
      pending.fn_name + "_d" + std::to_string(dylib_counter_++);
  auto jd_or = jit_->getExecutionSession().createJITDylib(dylib_name);
  if (!jd_or) {
    return Status::Internal("createJITDylib failed: " +
                            LlvmErrToString(jd_or.takeError()));
  }
  llvm::orc::JITDylib& jd = *jd_or;
  if (auto err = RegisterRuntimeSymbols(jit_.get(), jd)) {
    return Status::Internal("symbol registration failed: " +
                            LlvmErrToString(std::move(err)));
  }
  pending.dylib = &jd;

  // --- Persistent cache probe ------------------------------------------
  if (cache_ != nullptr && options.use_persistent_cache) {
    auto blob = cache_->Get(query_id);
    if (blob.ok() && blob->size() > sizeof(BlobHeader)) {
      BlobHeader header;
      std::memcpy(&header, blob->data(), sizeof(header));
      if (header.magic == kBlobMagic) {
        auto buffer = llvm::MemoryBuffer::getMemBufferCopy(
            llvm::StringRef(blob->data() + sizeof(BlobHeader),
                            blob->size() - sizeof(BlobHeader)),
            pending.fn_name);
        if (auto err = jit_->addObjectFile(jd, std::move(buffer))) {
          return Status::Internal("linking cached object failed: " +
                                  LlvmErrToString(std::move(err)));
        }
        auto sym = jit_->lookup(jd, pending.fn_name);
        if (!sym) {
          return Status::Internal("cached symbol lookup failed: " +
                                  LlvmErrToString(sym.takeError()));
        }
        pending.result.fn =
            reinterpret_cast<CompiledQueryFn>(sym->getAddress());
        pending.result.tail_index = header.tail_index;
        pending.result.num_handle_slots = header.num_handle_slots;
        pending.result.from_persistent_cache = true;
        MemoInsert(pending.result);
        pending.done = true;
        return pending;
      }
    }
  }

  // --- IR generation (the only phase that reads the plan) -----------------
  StopWatch watch;
  POSEIDON_ASSIGN_OR_RETURN(
      pending.code, GenerateQueryIR(plan, pending.fn_name, options.scan,
                                    options.adj_cache));
  pending.result.codegen_ms = watch.ElapsedMs();
  pending.result.tail_index = pending.code.tail_index;
  pending.result.num_handle_slots = pending.code.num_handle_slots;
  pending.code.module->setDataLayout(jit_->getDataLayout());
  return pending;
}

Result<CompiledQuery> JitEngine::FinishCompile(PendingCompile pending) {
  if (pending.done) return pending.result;
  // LLVM's legacy pass managers, the shared TargetMachine, and ORC session
  // mutations must not run from two threads at once: an adaptive background
  // compile racing a foreground Compile corrupts the heap or fails with
  // "symbol already defined". One compile at a time; a racer that lost
  // reuses the winner's memoized code instead of re-linking.
  std::lock_guard<std::mutex> compile_lock(compile_mu_);
  if (CompiledQuery hit; MemoLookup(pending.result.query_id, &hit)) {
    return hit;
  }
  if (compile_hook_) compile_hook_(pending.result.query_id);
  CompiledQuery result = pending.result;

  // --- Optimization ---------------------------------------------------------
  StopWatch watch;
  if (pending.options.optimize) OptimizeModule(pending.code.module.get());
  result.optimize_ms = watch.ElapsedMs();

  // --- Compilation to a relocatable object ---------------------------------
  watch.Reset();
  llvm::orc::SimpleCompiler compiler(*tm_);
  auto object = compiler(*pending.code.module);
  if (!object) {
    return Status::Internal("object compilation failed: " +
                            LlvmErrToString(object.takeError()));
  }
  result.compile_ms = watch.ElapsedMs();

  // --- Persist, link, resolve -----------------------------------------------
  if (cache_ != nullptr && pending.options.use_persistent_cache) {
    BlobHeader header{kBlobMagic, result.tail_index, result.num_handle_slots,
                      0};
    std::vector<char> blob(sizeof(header) + (*object)->getBufferSize());
    std::memcpy(blob.data(), &header, sizeof(header));
    std::memcpy(blob.data() + sizeof(header), (*object)->getBufferStart(),
                (*object)->getBufferSize());
    POSEIDON_RETURN_IF_ERROR(
        cache_->Put(result.query_id, blob.data(), blob.size()));
  }
  auto& jd = *static_cast<llvm::orc::JITDylib*>(pending.dylib);
  if (auto err = jit_->addObjectFile(jd, std::move(*object))) {
    return Status::Internal("linking object failed: " +
                            LlvmErrToString(std::move(err)));
  }
  auto sym = jit_->lookup(jd, pending.fn_name);
  if (!sym) {
    return Status::Internal("symbol lookup failed: " +
                            LlvmErrToString(sym.takeError()));
  }
  result.fn = reinterpret_cast<CompiledQueryFn>(sym->getAddress());
  MemoInsert(result);
  return result;
}

}  // namespace poseidon::jit
