#include "src/core/anchor.h"

namespace fargo::core {

MethodResult MethodMap::Invoke(std::string_view name,
                               const std::vector<Value>& args) const {
  auto it = handlers_.find(name);
  if (it == handlers_.end())
    throw FargoError("unknown method: " + std::string(name));
  if (const auto* later = std::get_if<AsyncHandler>(&it->second))
    return MethodResult{Value(), (*later)(args)};
  return MethodResult{std::get<Handler>(it->second)(args), {}};
}

std::vector<std::string> MethodMap::Names() const {
  std::vector<std::string> names;
  names.reserve(handlers_.size());
  for (const auto& [name, handler] : handlers_) names.push_back(name);
  return names;
}

}  // namespace fargo::core
