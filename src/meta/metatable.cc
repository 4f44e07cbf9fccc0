#include "meta/metatable.h"

namespace arkfs {

Metatable::Metatable(Inode dir_inode, std::vector<Dentry> entries,
                     std::vector<Inode> child_inodes)
    : dir_inode_(std::move(dir_inode)) {
  // Sorted input: each insert lands at the end, no search. The pair's key
  // is copied from d.name before d is moved into its value.
  for (auto& d : entries) {
    entries_.emplace_hint(entries_.end(), d.name, std::move(d));
  }
  child_inodes_.reserve(child_inodes.size());
  for (auto& ino : child_inodes) PutChildInode(std::move(ino));
}

Result<Dentry> Metatable::Lookup(const std::string& name) const {
  auto it = entries_.find(name);
  if (it == entries_.end()) return ErrStatus(Errc::kNoEnt, name);
  return it->second;
}

Status Metatable::Insert(const Dentry& dentry, std::optional<Inode> child_inode) {
  ARKFS_RETURN_IF_ERROR(ValidateName(dentry.name));
  auto [it, inserted] = entries_.emplace(dentry.name, dentry);
  if (!inserted) return ErrStatus(Errc::kExist, dentry.name);
  if (child_inode) {
    child_inodes_[child_inode->ino] = std::move(*child_inode);
  }
  return Status::Ok();
}

Status Metatable::Erase(const std::string& name) {
  auto it = entries_.find(name);
  if (it == entries_.end()) return ErrStatus(Errc::kNoEnt, name);
  child_inodes_.erase(it->second.ino);
  entries_.erase(it);
  return Status::Ok();
}

const Inode* Metatable::FindChildInode(const Uuid& ino) const {
  auto it = child_inodes_.find(ino);
  return it == child_inodes_.end() ? nullptr : &it->second;
}

Inode* Metatable::FindMutableChildInode(const Uuid& ino) {
  auto it = child_inodes_.find(ino);
  return it == child_inodes_.end() ? nullptr : &it->second;
}

void Metatable::PutChildInode(Inode inode) {
  child_inodes_[inode.ino] = std::move(inode);
}

std::vector<Dentry> Metatable::ListEntries() const {
  std::vector<Dentry> out;
  out.reserve(entries_.size());
  for (const auto& [_, d] : entries_) out.push_back(d);
  return out;
}

std::vector<const Inode*> Metatable::ChildInodes() const {
  std::vector<const Inode*> out;
  out.reserve(child_inodes_.size());
  for (const auto& [_, inode] : child_inodes_) out.push_back(&inode);
  return out;
}

}  // namespace arkfs
