#include "src/engine/imperative_engine.h"

#include <utility>

#include "src/common/check.h"

namespace bsched {
namespace {

std::string Suffixed(const std::string& name, const char* suffix) { return name + suffix; }

OpLabel Suffixed(OpLabel label, const char* suffix) {
  label.suffix = suffix;
  return label;
}

}  // namespace

void ImperativeEngine::RegisterForwardPreHook(int layer, DagEngine::OpFn hook) {
  BSCHED_CHECK(forward_pre_hooks_.find(layer) == forward_pre_hooks_.end());
  forward_pre_hooks_[layer] = std::move(hook);
}

void ImperativeEngine::RegisterBackwardHook(int layer, DagEngine::OpFn hook) {
  BSCHED_CHECK(backward_hooks_.find(layer) == backward_hooks_.end());
  backward_hooks_[layer] = std::move(hook);
}

OpId ImperativeEngine::Chain(OpId op) {
  if (last_stream_op_ != kInvalidOp) {
    dag_.AddDep(last_stream_op_, op);
  }
  last_stream_op_ = op;
  return op;
}

OpId ImperativeEngine::Post(std::string name, DagEngine::OpFn fn) {
  return Chain(dag_.AddOp(std::move(name), std::move(fn)));
}

OpId ImperativeEngine::Post(OpLabel label, DagEngine::OpFn fn) {
  return Chain(dag_.AddOp(label, std::move(fn)));
}

template <typename Name>
OpId ImperativeEngine::PostForwardAs(int layer, Name name, DagEngine::OpFn fn) {
  auto hook = forward_pre_hooks_.find(layer);
  if (hook != forward_pre_hooks_.end()) {
    Chain(dag_.AddOp(Suffixed(name, ".pre_hook"), hook->second));
  }
  return Chain(dag_.AddOp(std::move(name), std::move(fn)));
}

OpId ImperativeEngine::PostForward(int layer, std::string name, DagEngine::OpFn fn) {
  return PostForwardAs(layer, std::move(name), std::move(fn));
}

OpId ImperativeEngine::PostForward(int layer, OpLabel label, DagEngine::OpFn fn) {
  return PostForwardAs(layer, label, std::move(fn));
}

template <typename Name>
OpId ImperativeEngine::PostBackwardAs(int layer, Name name, DagEngine::OpFn fn) {
  auto hook = backward_hooks_.find(layer);
  if (hook == backward_hooks_.end()) {
    return Chain(dag_.AddOp(std::move(name), std::move(fn)));
  }
  Name hook_name = Suffixed(name, ".hook");
  const OpId op = Chain(dag_.AddOp(std::move(name), std::move(fn)));
  Chain(dag_.AddOp(std::move(hook_name), hook->second));
  return op;
}

OpId ImperativeEngine::PostBackward(int layer, std::string name, DagEngine::OpFn fn) {
  return PostBackwardAs(layer, std::move(name), std::move(fn));
}

OpId ImperativeEngine::PostBackward(int layer, OpLabel label, DagEngine::OpFn fn) {
  return PostBackwardAs(layer, label, std::move(fn));
}

OpId ImperativeEngine::PostBackground(std::string name, DagEngine::OpFn fn) {
  return dag_.AddOp(std::move(name), std::move(fn));
}

OpId ImperativeEngine::PostBackground(OpLabel label, DagEngine::OpFn fn) {
  return dag_.AddOp(label, std::move(fn));
}

void ImperativeEngine::After(OpId before, OpId after) { dag_.AddDep(before, after); }

}  // namespace bsched
